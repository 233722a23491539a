//! Detection-engine micro-benchmarks.
//!
//! The headline comparison is the signature scan: the from-scratch
//! Aho–Corasick automaton against a naive per-rule `memmem` loop — the
//! ablation DESIGN.md §5 calls out. Engine inspection costs directly set
//! the simulated products' throughput ceilings, so these numbers are the
//! ground truth behind the sensor cost model.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use idse_ids::aho::{contains, AhoCorasick};
use idse_ids::engine::anomaly::{AnomalyConfig, AnomalyEngine};
use idse_ids::engine::signature::{standard_rule_db, SignatureConfig, SignatureEngine};
use idse_ids::engine::{BenignObservation, DetectionEngine, Sensitivity};
use idse_net::Trace;
use idse_sim::{RngStream, SimDuration};
use idse_traffic::{GeneratorConfig, RecordStream, SiteProfile, StreamConfig};

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

fn bench_multipattern(c: &mut Criterion) {
    let rules = standard_rule_db();
    let patterns: Vec<&[u8]> = rules.iter().map(|r| r.pattern).collect();
    let ac = AhoCorasick::new(&patterns);
    let payloads = payload_corpus(64, 1024);
    let total_bytes: usize = payloads.iter().map(Vec::len).sum();

    let mut group = c.benchmark_group("signature_scan");
    group.throughput(Throughput::Bytes(total_bytes as u64));
    group.bench_function("aho_corasick", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for p in &payloads {
                hits += ac.matching_patterns(p).len();
            }
            hits
        })
    });
    group.bench_function("naive_per_rule", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for p in &payloads {
                for pat in &patterns {
                    if contains(p, pat) {
                        hits += 1;
                    }
                }
            }
            hits
        })
    });
    group.finish();
}

fn bench_engines(c: &mut Criterion) {
    let trace = RecordStream::new(StreamConfig::new(GeneratorConfig::new(
        SiteProfile::ecommerce_web(),
        40.0,
        SimDuration::from_secs(10),
        7,
    )))
    .expect("rate in range")
    .collect_trace();

    let mut group = c.benchmark_group("engine_inspect");
    group.throughput(Throughput::Elements(trace.len() as u64));

    group.bench_function(BenchmarkId::new("signature", trace.len()), |b| {
        b.iter_with_setup(
            || {
                let mut e = SignatureEngine::standard(SignatureConfig::default());
                e.set_sensitivity(Sensitivity::new(0.8));
                e
            },
            |mut e| {
                let mut dets = 0usize;
                for r in trace.records() {
                    dets += e.inspect(r.at, &r.packet).len();
                }
                dets
            },
        )
    });

    group.bench_function(BenchmarkId::new("anomaly", trace.len()), |b| {
        b.iter_with_setup(
            || {
                let mut e = trained_anomaly(&trace);
                e.set_sensitivity(Sensitivity::new(0.8));
                e
            },
            |mut e| {
                let mut dets = 0usize;
                for r in trace.records() {
                    dets += e.inspect(r.at, &r.packet).len();
                }
                dets
            },
        )
    });
    group.finish();
}

/// An anomaly engine trained on `trace`, one record at a time.
fn trained_anomaly(trace: &Trace) -> AnomalyEngine {
    let mut training = AnomalyEngine::new(AnomalyConfig::default()).begin_anomaly_training();
    for rec in trace.records() {
        training.learn_anomaly_baselines(rec.at, &BenignObservation::of_packet(&rec.packet));
    }
    training.finish_anomaly_training()
}

fn bench_training(c: &mut Criterion) {
    let trace = RecordStream::new(StreamConfig::new(GeneratorConfig::new(
        SiteProfile::realtime_cluster(),
        40.0,
        SimDuration::from_secs(10),
        9,
    )))
    .expect("rate in range")
    .collect_trace();
    let mut group = c.benchmark_group("anomaly_training");
    group.throughput(Throughput::Elements(trace.len() as u64));
    group.bench_function("train", |b| b.iter(|| trained_anomaly(&trace).is_trained()));
    group.finish();
}

fn bench_automaton_build(c: &mut Criterion) {
    let mut rng = RngStream::derive(3, "patterns");
    let patterns: Vec<Vec<u8>> = (0..200)
        .map(|_| {
            let mut p = vec![0u8; 8 + rng.index(24)];
            rng.fill_bytes(&mut p);
            p
        })
        .collect();
    c.bench_function("aho_corasick_build_200_rules", |b| {
        b.iter(|| AhoCorasick::new(&patterns).state_count())
    });
}

criterion_group!(benches, bench_multipattern, bench_engines, bench_training, bench_automaton_build);
criterion_main!(benches);
