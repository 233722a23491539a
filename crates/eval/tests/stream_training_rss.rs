//! Peak-RSS test: a stream evaluation trains on its known-benign stream
//! without storing it. Runs in its own integration-test binary so the
//! process's `VmHWM` reading is not polluted by other tests' allocations.

/// Peak resident set size (`VmHWM`) of this process, in bytes.
#[cfg(target_os = "linux")]
#[expect(
    clippy::panic,
    reason = "test helper outside #[test]: without VmHWM there is nothing to measure"
)]
fn peak_rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 =
                rest.trim().trim_end_matches("kB").trim().parse().expect("VmHWM is kB-valued");
            return kb * 1024;
        }
    }
    panic!("VmHWM not present in /proc/self/status");
}

#[cfg(target_os = "linux")]
#[test]
fn stream_training_is_never_stored() {
    use idse_eval::feeds::{FeedConfig, TestFeed};
    use idse_eval::EvaluationRequest;
    use idse_ids::products::{IdsProduct, ProductId};
    use idse_net::trace::TraceRecord;
    use idse_sim::SimDuration;
    use idse_traffic::RecordStream;

    const MIB: u64 = 1024 * 1024;
    // 40 s of training at 5,000 sessions/s, about 3M records, and a
    // one-second test window, so training dominates the run.
    let feed = FeedConfig::builder()
        .session_rate(5_000.0)
        .training_span(SimDuration::from_secs(40))
        .test_span(SimDuration::from_secs(1))
        .campaign_intensity(1)
        .seed(0x7a1e)
        .build();
    let evals = EvaluationRequest::new()
        .with_feed(feed.clone())
        .with_jobs(2)
        .evaluate_stream(&[IdsProduct::model(ProductId::FlowHunter)], 0.6);
    assert!(evals[0].scorecard.records > 0);
    let peak = peak_rss_bytes();

    // What the training trace would have cost stored: every record plus
    // its shared payload block (two reference counts and the bytes), before
    // any allocator overhead. Counted on the stream afterwards, which holds
    // only the sessions in flight.
    let profile = TestFeed::realtime_cluster_profile(&feed);
    let stored: u64 = RecordStream::new(TestFeed::training_stream(&profile, &feed))
        .expect("rate in range")
        .flatten()
        .map(|r| (std::mem::size_of::<TraceRecord>() + 16 + r.packet.payload.len()) as u64)
        .sum();
    assert!(stored >= 200 * MIB, "the training trace would take only {} MiB", stored / MIB);
    assert!(
        peak < 64 * MIB,
        "peak RSS {} MiB: the {} MiB training trace must not be stored",
        peak / MIB,
        stored / MIB
    );
}
