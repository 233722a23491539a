//! Peak-RSS smoke test: consuming a ~1M-record stream must not materialize
//! the trace. Runs in its own integration-test binary so the process's
//! `VmHWM` reading is not polluted by other tests' allocations.

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
fn million_record_stream_stays_in_bounded_rss() {
    use idse_sim::SimDuration;
    use idse_traffic::{GeneratorConfig, RecordStream, SiteProfile, StreamConfig};

    // ~620 sessions/s x 200 s x ~8 packets/session ≈ 1M records. A
    // materialized trace of that size costs several hundred MB; the stream
    // must hold only in-flight sessions plus one chunk.
    let cfg = StreamConfig::new(GeneratorConfig::new(
        SiteProfile::realtime_cluster_scaled(1024),
        620.0,
        SimDuration::from_secs(200),
        0xbeef,
    ));
    let mut total: u64 = 0;
    let mut checksum: u64 = 0;
    for chunk in RecordStream::new(cfg).expect("rate in range") {
        total += chunk.len() as u64;
        // Touch every record so the work cannot be optimized away.
        for r in &chunk {
            checksum = checksum
                .wrapping_mul(31)
                .wrapping_add(u64::from(u32::from(r.packet.ip.src)))
                .wrapping_add(r.packet.payload.len() as u64);
        }
    }
    assert!(total >= 1_000_000, "stream produced {total} records (checksum {checksum:x})");
    let peak = peak_rss_bytes();
    assert!(
        peak < 256 * 1024 * 1024,
        "peak RSS {} MiB exceeds the 256 MiB streaming bound for {total} records",
        peak / (1024 * 1024)
    );
}
