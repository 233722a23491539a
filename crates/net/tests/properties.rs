//! Property-based tests for the packet substrate: fragmentation and flow
//! canonicalization.

use idse_net::frag::{fragment, OverlapPolicy, Reassembler};
use idse_net::packet::{Ipv4Header, Packet, TcpFlags, TcpHeader};
use idse_net::FlowKey;
use proptest::prelude::*;
use std::net::Ipv4Addr;

fn arb_addr() -> impl Strategy<Value = Ipv4Addr> {
    any::<u32>().prop_map(Ipv4Addr::from)
}

fn arb_tcp_packet() -> impl Strategy<Value = Packet> {
    (
        arb_addr(),
        arb_addr(),
        any::<u16>(),
        any::<u16>(),
        any::<u32>(),
        any::<u32>(),
        0u8..64,
        prop::collection::vec(any::<u8>(), 0..600),
    )
        .prop_map(|(src, dst, sp, dp, seq, ack, flags, payload)| {
            Packet::tcp(
                Ipv4Header::simple(src, dst),
                TcpHeader {
                    src_port: sp,
                    dst_port: dp,
                    seq,
                    ack,
                    flags: TcpFlags {
                        fin: flags & 0b000001 != 0,
                        syn: flags & 0b000010 != 0,
                        rst: flags & 0b000100 != 0,
                        psh: flags & 0b001000 != 0,
                        ack: flags & 0b010000 != 0,
                        urg: flags & 0b100000 != 0,
                    },
                    window: 4096,
                },
                payload,
            )
        })
}

proptest! {
    /// Fragmentation reassembles to the original payload for any size.
    #[test]
    fn fragment_reassemble_round_trip(
        p in arb_tcp_packet(),
        frag_size in 8usize..256,
    ) {
        let frags = fragment(&p, frag_size);
        // Offsets must be 8-aligned and the last fragment unmarked.
        for f in &frags {
            prop_assert_eq!(f.ip.frag_offset as usize * 8 % 8, 0);
        }
        prop_assert!(!frags.last().unwrap().ip.more_fragments);
        let mut r = Reassembler::new(OverlapPolicy::FirstWins);
        let mut done = None;
        for f in &frags {
            if let Some(whole) = r.push(f) {
                done = Some(whole);
            }
        }
        let done = done.expect("complete");
        prop_assert_eq!(done.payload.as_ref(), p.payload.as_ref());
    }

    /// Reassembly is order-independent.
    #[test]
    fn reassembly_order_independent(
        p in arb_tcp_packet(),
        frag_size in 8usize..64,
        seed in any::<u64>(),
    ) {
        prop_assume!(p.payload.len() > frag_size);
        let mut frags = fragment(&p, frag_size);
        // Deterministic shuffle from the seed.
        let mut rng = idse_sim::RngStream::derive(seed, "shuffle");
        for i in (1..frags.len()).rev() {
            frags.swap(i, rng.index(i + 1));
        }
        let mut r = Reassembler::new(OverlapPolicy::LastWins);
        let mut done = None;
        for f in &frags {
            if let Some(whole) = r.push(f) {
                done = Some(whole);
            }
        }
        let whole = done.expect("complete");
        prop_assert_eq!(whole.payload.as_ref(), p.payload.as_ref());
    }

    /// Flow canonicalization: both directions map to the same canonical
    /// key and hash; canonicalization is idempotent.
    #[test]
    fn flow_canonicalization(p in arb_tcp_packet()) {
        let k = FlowKey::of(&p);
        prop_assert_eq!(k.canonical(), k.reversed().canonical());
        prop_assert_eq!(k.session_hash(), k.reversed().session_hash());
        prop_assert_eq!(k.canonical().canonical(), k.canonical());
        prop_assert_eq!(k.reversed().reversed(), k);
    }
}
