//! Substrate micro-benchmarks: event queue, session hashing,
//! fragmentation/reassembly.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use idse_net::frag::{fragment, OverlapPolicy, Reassembler};
use idse_net::packet::{Ipv4Header, Packet, TcpFlags, TcpHeader};
use idse_net::FlowKey;
use idse_sim::{EventQueue, RngStream, SimTime};
use std::net::Ipv4Addr;

fn sample_packet(payload_len: usize) -> Packet {
    Packet::tcp(
        Ipv4Header::simple(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 1, 2)),
        TcpHeader {
            src_port: 40123,
            dst_port: 80,
            seq: 7,
            ack: 9,
            flags: TcpFlags::PSH_ACK,
            window: 65535,
        },
        vec![0x41u8; payload_len],
    )
}

fn bench_event_queue(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue");
    group.throughput(Throughput::Elements(10_000));
    group.bench_function("schedule_pop_10k", |b| {
        let mut rng = RngStream::derive(5, "eq");
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..10_000u64 {
                q.schedule(SimTime::from_nanos(rng.uniform_u64(0, 1 << 40)), i);
            }
            let mut sum = 0u64;
            while let Some(ev) = q.pop() {
                sum = sum.wrapping_add(ev.event);
            }
            sum
        })
    });
    group.finish();
}

fn bench_session_hash(c: &mut Criterion) {
    let packets: Vec<Packet> = (0..1000u16)
        .map(|i| {
            let mut p = sample_packet(0);
            if let idse_net::Transport::Tcp(ref mut t) = p.transport {
                t.src_port = 1000 + i;
            }
            p
        })
        .collect();
    let mut group = c.benchmark_group("flow");
    group.throughput(Throughput::Elements(packets.len() as u64));
    group.bench_function("session_hash", |b| {
        b.iter(|| {
            packets.iter().map(|p| FlowKey::of(p).session_hash()).fold(0u64, u64::wrapping_add)
        })
    });
    group.finish();
}

fn bench_frag(c: &mut Criterion) {
    let packet = sample_packet(1400);
    let frags = fragment(&packet, 64);
    let mut group = c.benchmark_group("fragmentation");
    group.bench_function("fragment_1400B_into_64B", |b| b.iter(|| fragment(&packet, 64).len()));
    group.bench_function("reassemble", |b| {
        b.iter(|| {
            let mut r = Reassembler::new(OverlapPolicy::LastWins);
            let mut done = 0;
            for f in &frags {
                if r.push(f).is_some() {
                    done += 1;
                }
            }
            done
        })
    });
    group.finish();
}

criterion_group!(benches, bench_event_queue, bench_session_hash, bench_frag);
criterion_main!(benches);
