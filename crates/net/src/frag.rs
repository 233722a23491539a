//! IP fragmentation and policy-parameterized reassembly.
//!
//! Fragmentation matters to IDS evaluation because it is an evasion vector:
//! an attacker can split a signature across fragments, or send *overlapping*
//! fragments that the IDS and the target host reassemble differently. The
//! paper's observed-accuracy metrics need attacks that some IDSes miss for
//! structural (not random) reasons; fragmentation evasion in
//! `idse-attacks` is one of those, built on this module.

use crate::packet::{Packet, Transport};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// How a reassembler resolves overlapping fragment data.
///
/// Real stacks differed: BSD-derived stacks favored the *first* copy of an
/// overlapped byte, others favored the *last*. An IDS that reassembles with
/// one policy while the protected host uses the other can be blinded —
/// the classic Ptacek–Newsham insertion/evasion result the fragmentation
/// attacks in this testbed reproduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OverlapPolicy {
    /// Earlier-received data wins (BSD style).
    FirstWins,
    /// Later-received data wins (last-writer style).
    LastWins,
}

/// Split a packet's transport+payload body into IP fragments of at most
/// `frag_payload` bytes each (rounded down to an 8-byte multiple, minimum 8).
///
/// The first fragment carries the transport header; later fragments carry
/// raw payload continuation, as on a real wire. Returns the original packet
/// unchanged if it fits.
pub fn fragment(packet: &Packet, frag_payload: usize) -> Vec<Packet> {
    // The fragmentable body: transport header bytes + payload. We keep the
    // transport header struct in the first fragment and move payload bytes;
    // header length participates in offset arithmetic. The first fragment
    // must be large enough to hold the whole transport header.
    let header_len = packet.transport.header_len();
    // Continuation fragments honour the requested size (8-byte floor);
    // the first fragment must additionally hold the whole transport
    // header, so it gets its own (possibly larger) unit.
    let unit = (frag_payload / 8).max(1) * 8;
    let first_unit = unit.max(header_len.div_ceil(8) * 8);
    let total_body = header_len + packet.payload.len();
    if total_body <= first_unit {
        return vec![packet.clone()];
    }

    let mut frags = Vec::new();
    // First fragment: transport header + initial payload slice.
    let first_payload_len = first_unit - header_len;
    let mut ip = packet.ip;
    ip.more_fragments = true;
    ip.frag_offset = 0;
    frags.push(Packet {
        ip,
        transport: packet.transport,
        payload: Arc::from(
            packet.payload[..first_payload_len.min(packet.payload.len())]
                .to_vec()
                .into_boxed_slice(),
        ),
    });

    // Continuation fragments: raw payload slices carried with the same
    // transport header struct (its ports are what the wire's first 8 bytes
    // would alias); offset bookkeeping is what matters for reassembly.
    let mut offset_bytes = first_unit;
    while offset_bytes < total_body {
        let end = (offset_bytes + unit).min(total_body);
        let pl_start = offset_bytes - header_len;
        let pl_end = end - header_len;
        let mut ip = packet.ip;
        ip.frag_offset = (offset_bytes / 8) as u16;
        ip.more_fragments = end < total_body;
        frags.push(Packet {
            ip,
            transport: packet.transport,
            payload: Arc::from(packet.payload[pl_start..pl_end].to_vec().into_boxed_slice()),
        });
        offset_bytes = end;
    }
    frags
}

/// Key identifying fragments of one datagram.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct FragKey {
    src: Ipv4Addr,
    dst: Ipv4Addr,
    ident: u16,
    protocol: u8,
}

#[derive(Debug, Clone)]
struct PartialDatagram {
    transport: Option<Transport>,
    /// Byte map: offset → byte, resolved per the overlap policy; `None`
    /// where no fragment has written yet.
    bytes: Vec<Option<u8>>,
    /// Total body length, known once the last fragment arrives.
    total_len: Option<usize>,
    header_len: usize,
}

/// A reassembler with a configurable overlap policy.
#[derive(Debug, Clone)]
pub struct Reassembler {
    policy: OverlapPolicy,
    // Ordered, though only looked up by key: the reassembler's state
    // carries no hash order.
    partial: BTreeMap<FragKey, PartialDatagram>,
    completed: u64,
}

impl Reassembler {
    /// Create a reassembler using the given overlap policy.
    pub fn new(policy: OverlapPolicy) -> Self {
        Self { policy, partial: BTreeMap::new(), completed: 0 }
    }

    /// The configured policy.
    pub fn policy(&self) -> OverlapPolicy {
        self.policy
    }

    /// Feed one packet. Non-fragments pass through unchanged. Fragments are
    /// buffered; when a datagram completes, the reassembled packet is
    /// returned.
    pub fn push(&mut self, packet: &Packet) -> Option<Packet> {
        if !packet.ip.is_fragment() {
            return Some(packet.clone());
        }
        let key = FragKey {
            src: packet.ip.src,
            dst: packet.ip.dst,
            ident: packet.ip.ident,
            protocol: packet.transport.protocol().number(),
        };
        let header_len = packet.transport.header_len();
        let entry = self.partial.entry(key).or_insert_with(|| PartialDatagram {
            transport: None,
            bytes: Vec::new(),
            total_len: None,
            header_len,
        });

        let offset_bytes = packet.ip.frag_offset as usize * 8;
        if offset_bytes == 0 {
            entry.transport = Some(packet.transport);
            // First fragment: payload starts after the transport header.
            for (i, &b) in packet.payload.iter().enumerate() {
                insert_byte(&mut entry.bytes, header_len + i, b, self.policy);
            }
            if !packet.ip.more_fragments {
                entry.total_len = Some(header_len + packet.payload.len());
            }
        } else {
            for (i, &b) in packet.payload.iter().enumerate() {
                insert_byte(&mut entry.bytes, offset_bytes + i, b, self.policy);
            }
            if !packet.ip.more_fragments {
                entry.total_len = Some(offset_bytes + packet.payload.len());
            }
        }

        // Complete?
        let (total, transport) = match (entry.total_len, entry.transport) {
            (Some(t), Some(tr)) => (t, tr),
            _ => return None,
        };
        let body_len = total - entry.header_len;
        let mut payload = vec![0u8; body_len];
        for (i, slot) in payload.iter_mut().enumerate() {
            match entry.bytes.get(entry.header_len + i) {
                Some(&Some(b)) => *slot = b,
                _ => return None, // hole remains
            }
        }
        self.partial.remove(&key);
        self.completed += 1;
        let mut ip = packet.ip;
        ip.more_fragments = false;
        ip.frag_offset = 0;
        Some(Packet { ip, transport, payload: Arc::from(payload.into_boxed_slice()) })
    }

    /// Datagrams fully reassembled so far.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Datagrams still incomplete (buffered state — feeds the paper's
    /// *Data Storage* metric).
    pub fn pending(&self) -> usize {
        self.partial.len()
    }
}

fn insert_byte(map: &mut Vec<Option<u8>>, idx: usize, b: u8, policy: OverlapPolicy) {
    if map.len() <= idx {
        map.resize(idx + 1, None);
    }
    let slot = &mut map[idx];
    match policy {
        OverlapPolicy::FirstWins => {
            slot.get_or_insert(b);
        }
        OverlapPolicy::LastWins => *slot = Some(b),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Ipv4Header, TcpFlags, TcpHeader};

    fn data_packet(payload: Vec<u8>) -> Packet {
        let mut ip = Ipv4Header::simple(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2));
        ip.ident = 777;
        Packet::tcp(
            ip,
            TcpHeader {
                src_port: 1234,
                dst_port: 80,
                seq: 100,
                ack: 0,
                flags: TcpFlags::PSH_ACK,
                window: 65535,
            },
            payload,
        )
    }

    #[test]
    fn small_packet_not_fragmented() {
        let p = data_packet(vec![1, 2, 3]);
        let frags = fragment(&p, 576);
        assert_eq!(frags.len(), 1);
        assert!(!frags[0].ip.is_fragment());
    }

    #[test]
    fn fragment_and_reassemble_round_trip() {
        let body: Vec<u8> = (0..200u8).collect();
        let p = data_packet(body.clone());
        let frags = fragment(&p, 64);
        assert!(frags.len() > 1);
        assert!(frags[0].ip.more_fragments);
        assert!(!frags.last().unwrap().ip.more_fragments);

        let mut r = Reassembler::new(OverlapPolicy::FirstWins);
        let mut done = None;
        for f in &frags {
            if let Some(p) = r.push(f) {
                done = Some(p);
            }
        }
        let done = done.expect("reassembly completes");
        assert_eq!(done.payload.as_ref(), body.as_slice());
        assert_eq!(r.completed(), 1);
        assert_eq!(r.pending(), 0);
    }

    #[test]
    fn out_of_order_fragments_reassemble() {
        let body: Vec<u8> = (0..150u8).collect();
        let p = data_packet(body.clone());
        let mut frags = fragment(&p, 48);
        frags.reverse();
        let mut r = Reassembler::new(OverlapPolicy::FirstWins);
        let mut done = None;
        for f in &frags {
            if let Some(p) = r.push(f) {
                done = Some(p);
            }
        }
        assert_eq!(done.unwrap().payload.as_ref(), body.as_slice());
    }

    #[test]
    fn missing_fragment_leaves_hole() {
        let p = data_packet((0..200u8).collect());
        let frags = fragment(&p, 64);
        let mut r = Reassembler::new(OverlapPolicy::FirstWins);
        for f in frags.iter().skip(1) {
            assert!(r.push(f).is_none());
        }
        assert_eq!(r.pending(), 1);
        assert_eq!(r.completed(), 0);
    }

    #[test]
    fn overlap_policies_differ() {
        // Craft two overlapping continuation fragments by hand: both cover
        // byte offset 24 (payload index 4 after the 20-byte TCP header)
        // with different content.
        let p = data_packet((0..100u8).collect());
        let frags = fragment(&p, 32); // unit 32: offsets 0, 32, 64, 96
                                      // Duplicate the second fragment with altered content.
        let mut overlap = frags[1].clone();
        let altered: Vec<u8> = overlap.payload.iter().map(|b| b ^ 0xff).collect();
        overlap.payload = Arc::from(altered.into_boxed_slice());

        let run = |policy| {
            let mut r = Reassembler::new(policy);
            let mut done = None;
            for f in frags.iter().chain(std::iter::once(&overlap)) {
                if let Some(p) = r.push(f) {
                    done = Some(p);
                }
            }
            // The overlap arrives after completion; re-push originals if
            // needed. Completion happens when all holes fill, which occurs
            // before the overlap — so feed overlap earlier instead.
            if done.is_none() {
                panic!("should complete");
            }
            done.unwrap()
        };
        // Feed overlap BEFORE the genuine fragment to exercise policy.
        let run_overlap_first = |policy| {
            let mut r = Reassembler::new(policy);
            let seq = [&frags[0], &overlap, &frags[1], &frags[2], &frags[3]];
            let mut done = None;
            for f in seq {
                if let Some(p) = r.push(f) {
                    done = Some(p);
                }
            }
            done.expect("completes")
        };
        let first = run_overlap_first(OverlapPolicy::FirstWins);
        let last = run_overlap_first(OverlapPolicy::LastWins);
        assert_ne!(first.payload, last.payload, "policies must diverge on overlap");
        // FirstWins keeps the overlap's (first-seen) content for that range.
        assert_eq!(first.payload[12], 12u8 ^ 0xff);
        // LastWins keeps the genuine fragment's content.
        assert_eq!(last.payload[12], 12u8);
        let _ = run(OverlapPolicy::FirstWins);
    }

    #[test]
    fn interleaved_datagrams_do_not_mix() {
        let p1 = data_packet(vec![0xaa; 100]);
        let mut p2 = data_packet(vec![0xbb; 100]);
        p2.ip.ident = 778;
        let f1 = fragment(&p1, 48);
        let f2 = fragment(&p2, 48);
        let mut r = Reassembler::new(OverlapPolicy::FirstWins);
        let mut out = Vec::new();
        for (a, b) in f1.iter().zip(f2.iter()) {
            if let Some(p) = r.push(a) {
                out.push(p);
            }
            if let Some(p) = r.push(b) {
                out.push(p);
            }
        }
        assert_eq!(out.len(), 2);
        assert!(out.iter().any(|p| p.payload.iter().all(|&b| b == 0xaa)));
        assert!(out.iter().any(|p| p.payload.iter().all(|&b| b == 0xbb)));
    }
}
