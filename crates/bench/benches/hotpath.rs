//! Hot-path benchmarks: the guard on the two loops that multiply
//! everything the paper measures — the signature engine's per-byte
//! automaton walk and the DES kernel's per-event dispatch. A regression
//! in either shows here (CI re-runs both) before it shows end to end; the
//! results round-trip through `store bench-import` into the committed
//! `BENCH_hotpath.json` as `bench.engine_mb_s` and `bench.sim_events_s`.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use idse_ids::aho::AhoCorasick;
use idse_ids::engine::signature::standard_rule_db;
use idse_sim::{EventQueue, RngStream, SimDuration, SimTime, Simulation, World};

fn payload_corpus(n: usize, len: usize) -> Vec<Vec<u8>> {
    let mut rng = RngStream::derive(1, "bench-payloads");
    (0..n)
        .map(|i| {
            if i % 3 == 0 {
                idse_traffic::payload::http_response(&mut rng, len)
            } else {
                idse_traffic::payload::http_request(&mut rng)
            }
        })
        .collect()
}

/// Signature-engine scan throughput: the per-byte automaton walk in
/// `aho.rs` over a realistic HTTP payload mix. `bench.engine_mb_s`.
fn bench_engine_scan(c: &mut Criterion) {
    let rules = standard_rule_db();
    let patterns: Vec<&[u8]> = rules.iter().map(|r| r.pattern).collect();
    let ac = AhoCorasick::new(&patterns);
    let payloads = payload_corpus(256, 1024);
    let total_bytes: usize = payloads.iter().map(Vec::len).sum();

    let mut group = c.benchmark_group("hotpath");
    group.throughput(Throughput::Bytes(total_bytes as u64));
    group.bench_function("engine_scan", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for p in &payloads {
                hits += ac.matching_patterns(p).len();
            }
            hits
        })
    });
    group.finish();
}

/// A world whose every event reschedules a follow-up until the budget is
/// spent: keeps the queue non-empty so the bench times the kernel's
/// peek/pop/dispatch loop, not queue teardown.
struct Relay {
    remaining: u64,
}

impl World for Relay {
    type Event = u64;

    fn handle(&mut self, now: SimTime, event: u64, queue: &mut EventQueue<u64>) {
        if self.remaining > 0 {
            self.remaining -= 1;
            queue.schedule(now + SimDuration::from_nanos(100 + (event % 7) * 13), event + 1);
        }
    }
}

/// DES kernel dispatch throughput: the per-event drain loop in
/// `idse-sim`, one event at a time. `bench.sim_events_s`.
fn bench_sim_dispatch(c: &mut Criterion) {
    const EVENTS: u64 = 100_000;
    const SEEDS: u64 = 64;

    let mut group = c.benchmark_group("hotpath");
    group.throughput(Throughput::Elements(EVENTS));
    group.bench_function("sim_dispatch", |b| {
        b.iter(|| {
            let mut sim = Simulation::new();
            let mut rng = RngStream::derive(2, "bench-dispatch");
            for i in 0..SEEDS {
                sim.queue_mut().schedule(SimTime::from_nanos(rng.uniform_u64(0, 1 << 20)), i);
            }
            let mut world = Relay { remaining: EVENTS - SEEDS };
            sim.run_to_completion(&mut world)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_engine_scan, bench_sim_dispatch);
criterion_main!(benches);
