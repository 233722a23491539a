//! Property-based tests for the traffic generator: determinism, content
//! realism, and structural invariants over arbitrary seeds and rates.

use idse_exec::Executor;
use idse_net::trace::Trace;
use idse_sim::{RngStream, SimDuration, SimTime};
use idse_traffic::{
    flow_shard, GeneratorConfig, PayloadMode, RecordStream, SessionMerge, SessionSynth,
    SiteProfile, StreamConfig,
};
use proptest::prelude::*;

fn trace_of(generator: GeneratorConfig) -> Trace {
    RecordStream::new(StreamConfig::new(generator)).expect("rate in range").collect_trace()
}

fn profiles() -> impl Strategy<Value = SiteProfile> {
    prop_oneof![
        Just(SiteProfile::ecommerce_web()),
        Just(SiteProfile::realtime_cluster()),
        Just(SiteProfile::office_lan()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The generator is a pure function of (profile, rate, span, seed).
    #[test]
    fn generation_is_deterministic(profile in profiles(), seed in any::<u64>(), rate in 5.0f64..40.0) {
        let cfg = GeneratorConfig::new(profile, rate, SimDuration::from_secs(5), seed);
        let a = trace_of(cfg.clone());
        let b = trace_of(cfg);
        prop_assert_eq!(a.len(), b.len());
        for (x, y) in a.records().iter().zip(b.records().iter()) {
            prop_assert_eq!(x.at, y.at);
            prop_assert_eq!(&x.packet, &y.packet);
        }
    }

    /// Background traffic is benign, sorted, within the window, and never
    /// self-addressed, for any seed.
    #[test]
    fn background_invariants(profile in profiles(), seed in any::<u64>()) {
        let t = trace_of(GeneratorConfig::new(profile, 20.0, SimDuration::from_secs(5), seed));
        prop_assert_eq!(t.attack_packets(), 0);
        let mut last = SimTime::ZERO;
        for r in t.records() {
            prop_assert!(r.at >= last);
            last = r.at;
            prop_assert_ne!(r.packet.ip.src, r.packet.ip.dst);
        }
    }

    /// Random-byte mode preserves timing and sizes exactly.
    #[test]
    fn payload_mode_preserves_shape(seed in any::<u64>()) {
        let mut cfg =
            GeneratorConfig::new(SiteProfile::ecommerce_web(), 15.0, SimDuration::from_secs(4), seed);
        let real = trace_of(cfg.clone());
        cfg.payload_mode = PayloadMode::RandomBytes;
        let rand = trace_of(cfg);
        prop_assert_eq!(real.len(), rand.len());
        for (a, b) in real.records().iter().zip(rand.records().iter()) {
            prop_assert_eq!(a.at, b.at);
            prop_assert_eq!(a.packet.payload.len(), b.packet.payload.len());
            prop_assert_eq!(a.packet.transport.protocol(), b.packet.transport.protocol());
        }
    }

    /// `collect()`-ing the stream equals the materialized oracle byte for
    /// byte, at every chunk size — the tentpole determinism contract: the
    /// chunk size is pure batching and never changes the bytes produced.
    #[test]
    fn stream_collect_matches_materialized(profile in profiles(), seed in any::<u64>(), rate in 5.0f64..30.0) {
        let cfg =
            StreamConfig::new(GeneratorConfig::new(profile, rate, SimDuration::from_secs(4), seed));
        let oracle = RecordStream::materialize(&cfg).unwrap();
        for chunk in [1usize, 64, 4096] {
            let streamed = RecordStream::new(cfg.clone().with_chunk_records(chunk))
                .unwrap()
                .collect_trace();
            prop_assert_eq!(streamed.len(), oracle.len());
            for (x, y) in streamed.records().iter().zip(oracle.records().iter()) {
                prop_assert_eq!(x.at, y.at);
                prop_assert_eq!(&x.packet, &y.packet);
                prop_assert_eq!(&x.truth, &y.truth);
            }
        }
    }

    /// The batch-parallel stream equals the materialized oracle: batches of
    /// any size, synthesized on 1, 2 or 8 workers and merged in batch
    /// order, give the oracle's records, for any rate, span and shard; and
    /// the serial stream gives them at any chunk size.
    #[test]
    fn parallel_batches_match_materialized(
        seed in any::<u64>(),
        rate in 0.0f64..60.0,
        span_ms in 0u64..4_500,
        shards in 1u32..4,
        shard in 0u32..4,
        chunk in 1usize..300,
        batch in 1usize..40,
    ) {
        let cfg = StreamConfig::new(GeneratorConfig::new(
            SiteProfile::realtime_cluster(),
            rate,
            SimDuration::from_millis(span_ms),
            seed,
        ))
        .with_shard(shard, shards)
        .with_chunk_records(chunk);
        let oracle = RecordStream::materialize(&cfg).unwrap();
        let want: Vec<_> = oracle.records().iter().map(|r| (r.at, r.packet.clone())).collect();
        let serial: Vec<_> = RecordStream::new(cfg.clone())
            .unwrap()
            .flatten()
            .map(|r| (r.at, r.packet))
            .collect();
        prop_assert!(serial == want, "the chunked serial stream differs");
        let synth = SessionSynth::new(cfg).unwrap();
        for workers in [1usize, 2, 8] {
            let got: Vec<_> = Executor::new(workers).ordered_fan_out(
                synth.session_batches(batch),
                |b| synth.synthesize_batch(&b),
                |runs| SessionMerge::new(runs).collect(),
            );
            prop_assert!(got == want, "{} workers, batches of {}", workers, batch);
        }
    }

    /// Flow-key shards partition the stream exactly: every record lands in
    /// its own shard and the merged shards reproduce the unsharded bytes.
    #[test]
    fn stream_shards_partition(seed in any::<u64>(), shards in 2u32..6) {
        let cfg = StreamConfig::new(GeneratorConfig::new(
            SiteProfile::realtime_cluster(),
            20.0,
            SimDuration::from_secs(4),
            seed,
        ));
        let full = RecordStream::new(cfg.clone()).unwrap().collect_trace();
        let mut merged = Trace::new();
        for s in 0..shards {
            let part = RecordStream::new(cfg.clone().with_shard(s, shards))
                .unwrap()
                .collect_trace();
            for r in part.records() {
                prop_assert_eq!(flow_shard(r.packet.ip.src, r.packet.ip.dst, shards), s);
                merged.push(r.clone());
            }
        }
        merged.finish();
        prop_assert_eq!(merged.len(), full.len());
        for (x, y) in merged.records().iter().zip(full.records().iter()) {
            prop_assert_eq!(x.at, y.at);
            prop_assert_eq!(&x.packet, &y.packet);
        }
    }

    /// Realism scoring separates generated protocol content from noise for
    /// any seed.
    #[test]
    fn realism_separates_content(seed in any::<u64>()) {
        use idse_traffic::{payload, realism};
        let mut rng = RngStream::derive(seed, "rl");
        let real: Vec<Vec<u8>> = (0..20).map(|_| payload::http_request(&mut rng)).collect();
        let noise: Vec<Vec<u8>> = real.iter().map(|p| payload::random_bytes(&mut rng, p.len())).collect();
        let sr = realism::realism_score(real.iter().map(|v| v.as_slice()));
        let sn = realism::realism_score(noise.iter().map(|v| v.as_slice()));
        prop_assert!(sr > sn, "realistic {sr} must beat noise {sn}");
    }
}
