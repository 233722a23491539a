//! Hot-path benchmarks: the guard on the loops that multiply everything
//! the paper measures — the signature engine's per-byte automaton walk and
//! the DES kernel's per-event dispatch, both of derived events alone and
//! of chunked inputs the way a pipeline session feeds them. A regression
//! in any shows here (CI re-runs them) before it shows end to end; the
//! first two round-trip through `store bench-import` into the committed
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

/// A world shaped like a pipeline deployment: each input (`true`) schedules
/// one derived follow-up, its stage completion, a few microseconds later.
struct Stage;

impl World for Stage {
    type Event = (bool, u64);

    fn handle(
        &mut self,
        now: SimTime,
        (input, id): (bool, u64),
        queue: &mut EventQueue<(bool, u64)>,
    ) {
        if input {
            queue.schedule(now + SimDuration::from_nanos(1_500 + (id % 7) * 130), (false, id));
        }
    }
}

/// DES dispatch as `PipelineSession::push_chunk` drives it: time-sorted
/// inputs admitted in `DEFAULT_CHUNK_RECORDS` chunks, each chunk after a
/// drain up to its first input, so a chunk's inputs wait in the queue
/// beside the in-flight derived events.
fn bench_chunked_dispatch(c: &mut Criterion) {
    const CHUNK: usize = idse_traffic::DEFAULT_CHUNK_RECORDS;
    const CHUNKS: usize = 8;

    let mut rng = RngStream::derive(3, "bench-chunked");
    let mut at = 0;
    let arrivals: Vec<SimTime> = (0..CHUNK * CHUNKS)
        .map(|_| {
            at += rng.uniform_u64(0, 2_000);
            SimTime::from_nanos(at)
        })
        .collect();

    let mut group = c.benchmark_group("hotpath");
    group.throughput(Throughput::Elements(2 * arrivals.len() as u64));
    group.bench_function("chunked_dispatch", |b| {
        b.iter(|| {
            let mut sim = Simulation::new();
            let mut world = Stage;
            let mut id = 0;
            for chunk in arrivals.chunks(CHUNK) {
                sim.run_before(&mut world, chunk[0]);
                for &at in chunk {
                    sim.queue_mut().schedule_input(at, (true, id));
                    id += 1;
                }
            }
            sim.run_to_completion(&mut world);
            sim.dispatched()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_engine_scan, bench_sim_dispatch, bench_chunked_dispatch);
criterion_main!(benches);
