//! Flat-memory test: a daemon's peak RSS must not grow with the number of
//! finished jobs it remembers. Runs in its own integration-test binary so
//! the process's `VmHWM` reading is not polluted by other tests'
//! allocations.

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
fn finished_jobs_do_not_grow_the_daemon() {
    use idse_daemon::{replay, DaemonConfig, DaemonCore};

    // FlowHunter stream jobs of 200–500 transactions at 100 sessions/s over
    // two shards, at two workers: each one records well over 65k
    // per-packet telemetry events.
    let mut core = DaemonCore::new(DaemonConfig::default().with_jobs(2)).expect("core");
    let mut run = |jobs: std::ops::Range<u64>| {
        for k in jobs {
            let transactions = 200 + (k * 37) % 301;
            let script = format!(
                "{{\"cmd\":\"submit\",\"spec\":{{\"kind\":\"stream\",\"products\":[\"flow\"],\
                 \"seed\":{k},\"rate\":100.0,\"transactions\":{transactions},\"shards\":2}}}}\n\
                 {{\"cmd\":\"drain\"}}\n{{\"cmd\":\"watch\",\"id\":{}}}",
                k + 1
            );
            let out = replay(&mut core, &script).expect("replay");
            let last = out.last().expect("terminal watch line");
            assert!(last.contains("\"state\":\"completed\""), "{last}");
            assert!(last.contains("\"dropped\":0"), "{last}");
        }
    };
    run(0..10);
    let warm = peak_rss_bytes();
    run(10..40);
    let grown = peak_rss_bytes().saturating_sub(warm);
    assert!(
        grown < 16 * 1024 * 1024,
        "peak RSS grew {} MiB over 30 more finished jobs (from {} MiB)",
        grown / (1024 * 1024),
        warm / (1024 * 1024)
    );
}
