//! Throughput searches: zero-loss maximum and lethal dose (Table 3).
//!
//! Both metrics replay *the same canned feed* at increasing time
//! compression — the methodology's answer to "simple flooding … is not
//! sufficient": the load is realistic traffic sped up, not random
//! packets. Zero-loss is the largest offered rate with no unmonitored
//! packets; lethal dose is the offered rate at which a component's
//! failure behavior trips.

use crate::feeds::TestFeed;
use idse_ids::pipeline::{PipelineOutcome, PipelineRunner};
use idse_ids::products::IdsProduct;
use idse_net::trace::Trace;
use idse_traffic::DEFAULT_CHUNK_RECORDS;
use serde::Serialize;

/// Result of the two searches for one product.
#[derive(Debug, Clone, Serialize)]
pub struct ThroughputReport {
    /// Product name.
    pub product: String,
    /// Offered rate at the base (uncompressed) feed, packets/second.
    pub base_pps: f64,
    /// Largest sustained rate with zero unmonitored packets, pps.
    pub zero_loss_pps: f64,
    /// Offered rate at which a component failure tripped, pps
    /// (`None` if no failure occurred within the search ceiling —
    /// "degrades gracefully").
    pub lethal_dose_pps: Option<f64>,
    /// Loss ratio observed at the lethal dose (or at the ceiling).
    pub loss_at_extreme: f64,
    /// Peak simultaneous open TCP connections at the zero-loss rate — the
    /// paper's alternative denomination ("measured in packets/sec or # of
    /// simultaneous TCP streams").
    pub zero_loss_streams: usize,
}

/// Peak simultaneous open TCP connections over a trace.
pub fn peak_simultaneous_streams(trace: &idse_net::trace::Trace) -> usize {
    let mut tracker = idse_net::tcp::ConnTracker::new();
    let mut peak = 0;
    for rec in trace.records() {
        tracker.observe(&rec.packet);
        peak = peak.max(tracker.open_connections());
    }
    peak
}

/// A probe counts as lossless when at most this fraction of offered
/// packets goes unmonitored (the paper's "sustained average of zero lost
/// packets" over a finite replay).
const LOSSLESS: f64 = 0.001;

/// How many copies of `scaled` tile at least one second of load.
fn sustaining_copies(scaled: &Trace) -> u32 {
    let span = scaled.span().as_secs_f64();
    if span > 0.0 {
        (1.0 / span).ceil().max(1.0) as u32
    } else {
        1
    }
}

/// One probe of the search at time compression `factor`.
///
/// Load tests replay the realistic *background* (content matters to
/// per-packet cost); attack accuracy is measured elsewhere. The scaled
/// trace is tiled to at least one second of sustained load so stage
/// buffers cannot hide the offered rate as a transient. The tiles are
/// streamed, never materialized, to a
/// [`PipelineSession`](idse_ids::pipeline::PipelineSession) in
/// [`DEFAULT_CHUNK_RECORDS`] chunks, which is byte-identical to one
/// monolithic run over [`Trace::repeated`]. After each chunk, `stop` sees
/// the session's evicted-unmonitored count and the number of records in
/// the load; the probe returns `None` as soon as `stop` says so.
fn probe(
    trained: &PipelineRunner,
    feed: &TestFeed,
    factor: f64,
    mut stop: impl FnMut(u64, usize) -> bool,
) -> Option<PipelineOutcome> {
    let scaled = feed.background.time_scaled(factor);
    let mut load = scaled.tiles(sustaining_copies(&scaled));
    let records = load.len();
    // The evicted-unmonitored count bounds `missed` from below only while
    // nothing is blocked or excluded from the data pool.
    let config = trained.config();
    debug_assert!(!config.auto_response && config.data_pool.is_permissive());
    let mut session = trained.session();
    while load.len() > 0 {
        session.push_chunk(load.by_ref().take(DEFAULT_CHUNK_RECORDS));
        if stop(session.evicted_unmonitored(), records) {
            return None;
        }
    }
    Some(session.finish())
}

/// Whether `evicted_unmonitored` records out of a load of `records` prove
/// the probe lossy. Sound because the count never exceeds the finished
/// run's `missed`, `offered` never exceeds `records`, and f64 division
/// is monotone.
fn provably_lossy(evicted_unmonitored: u64, records: usize) -> bool {
    evicted_unmonitored as f64 / records as f64 > LOSSLESS
}

/// A probe run to the end.
fn run_at(trained: &PipelineRunner, feed: &TestFeed, factor: f64) -> PipelineOutcome {
    probe(trained, feed, factor, |_, _| false).expect("a probe that never stops finishes")
}

/// Whether the probe at `factor` is lossless, stopped at the first chunk
/// boundary where it is provably not.
fn lossless_at(trained: &PipelineRunner, feed: &TestFeed, factor: f64) -> bool {
    probe(trained, feed, factor, provably_lossy).is_some_and(|out| out.loss_ratio() <= LOSSLESS)
}

/// Binary-search the zero-loss maximum and escalate to the lethal dose.
///
/// `max_factor` bounds the search (time compression beyond which we call
/// the product graceful). Doubling and bisection probes only decide
/// losslessness, so they stop early once provably lossy; lethal-dose
/// probes run to the end because their failures and loss are reported.
pub fn throughput_search(
    product: &IdsProduct,
    feed: &TestFeed,
    max_factor: f64,
) -> ThroughputReport {
    search(&feed.trained_runner(product), feed, max_factor)
}

/// [`throughput_search`] with the runner [`TestFeed::trained_runner`]
/// gives, so every probe of the search deploys one training.
pub(crate) fn search(
    trained: &PipelineRunner,
    feed: &TestFeed,
    max_factor: f64,
) -> ThroughputReport {
    let base_pps = feed.background.mean_pps();

    // Establish an upper bracket for zero-loss by doubling.
    let mut lo = 1.0;
    let mut hi = 1.0;
    let mut hi_lossless = lossless_at(trained, feed, hi);
    while hi_lossless && hi < max_factor {
        lo = hi;
        hi = (hi * 2.0).min(max_factor);
        hi_lossless = lossless_at(trained, feed, hi);
        if hi >= max_factor {
            break;
        }
    }

    let zero_loss_factor = if hi_lossless {
        hi // lossless all the way to the ceiling
    } else {
        // Bisect [lo, hi].
        for _ in 0..12 {
            let mid = 0.5 * (lo + hi);
            if lossless_at(trained, feed, mid) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    };

    // Lethal dose: escalate from the zero-loss point until failures trip.
    let mut lethal = None;
    let mut loss_at_extreme = 0.0;
    let mut factor = (zero_loss_factor * 1.5).max(2.0);
    while factor <= max_factor {
        let out = run_at(trained, feed, factor);
        loss_at_extreme = out.loss_ratio();
        if out.failures > 0 {
            lethal = Some(factor);
            break;
        }
        factor *= 1.6;
    }

    let zero_loss_streams =
        peak_simultaneous_streams(&feed.background.time_scaled(zero_loss_factor));

    ThroughputReport {
        product: trained.product().id.name().to_owned(),
        base_pps,
        zero_loss_pps: base_pps * zero_loss_factor,
        lethal_dose_pps: lethal.map(|f| base_pps * f),
        loss_at_extreme,
        zero_loss_streams,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feeds::FeedConfig;
    use idse_ids::products::ProductId;
    use idse_sim::SimDuration;

    fn tiny_feed() -> TestFeed {
        TestFeed::ecommerce(
            &FeedConfig::builder()
                .session_rate(10.0)
                .training_span(SimDuration::from_secs(8))
                .test_span(SimDuration::from_secs(15))
                .campaign_intensity(1)
                .seed(3)
                .build(),
        )
    }

    #[test]
    fn zero_loss_at_least_base_rate() {
        let feed = tiny_feed();
        let r = throughput_search(&IdsProduct::model(ProductId::NidSentry), &feed, 64.0);
        assert!(r.zero_loss_pps >= r.base_pps, "{r:?}");
        assert!(r.zero_loss_streams > 0, "TCP sessions must overlap at speed: {r:?}");
    }

    #[test]
    fn stream_peak_counts_overlap() {
        // Compression does not change which connections exist, only how
        // much they overlap: the peak must not fall as the rate rises.
        let feed = tiny_feed();
        let slow = peak_simultaneous_streams(&feed.background);
        let fast = peak_simultaneous_streams(&feed.background.time_scaled(64.0));
        assert!(fast >= slow, "fast {fast} vs slow {slow}");
    }

    #[test]
    fn lethal_dose_exceeds_zero_loss_when_found() {
        let feed = tiny_feed();
        let r = throughput_search(&IdsProduct::model(ProductId::AgentWatch), &feed, 512.0);
        if let Some(lethal) = r.lethal_dose_pps {
            assert!(
                lethal > r.zero_loss_pps,
                "lethal dose {lethal} must exceed zero-loss {}",
                r.zero_loss_pps
            );
        }
    }

    #[test]
    fn early_exit_agrees_with_full_runs() {
        let feed = tiny_feed();
        let (mut stopped, mut finished) = (0, 0);
        for id in ProductId::ALL {
            let trained = feed.trained_runner(&IdsProduct::model(id));
            for factor in [1.0, 256.0, 512.0, 1024.0] {
                let mut counts = Vec::new();
                let stopping = probe(&trained, &feed, factor, |n, records| {
                    counts.push(n);
                    provably_lossy(n, records)
                });
                let verdict = stopping.as_ref().is_some_and(|out| out.loss_ratio() <= LOSSLESS);
                // A probe that ran to the end is the full run; one that
                // stopped is rerun in full, recording every chunk boundary.
                let full = match stopping {
                    Some(out) => {
                        finished += 1;
                        out
                    }
                    None => {
                        stopped += 1;
                        counts.clear();
                        probe(&trained, &feed, factor, |n, _| {
                            counts.push(n);
                            false
                        })
                        .expect("a probe that never stops finishes")
                    }
                };
                assert_eq!(verdict, full.loss_ratio() <= LOSSLESS, "{id:?} at {factor}");
                assert!(counts.windows(2).all(|w| w[0] <= w[1]), "{id:?} at {factor}: {counts:?}");
                assert!(
                    counts.iter().all(|&n| n <= full.missed),
                    "{id:?} at {factor}: {counts:?} exceeds missed {}",
                    full.missed
                );
            }
        }
        // The grid must exercise both outcomes.
        assert!(stopped > 0 && finished > 0, "stopped {stopped}, finished {finished}");
    }

    #[test]
    fn streamed_probe_equals_a_run_over_the_materialized_load() {
        let feed = tiny_feed();
        for id in ProductId::ALL {
            let trained = feed.trained_runner(&IdsProduct::model(id));
            for factor in [1.0, 256.0, 1024.0] {
                let streamed = run_at(&trained, &feed, factor);
                let scaled = feed.background.time_scaled(factor);
                let whole = trained.run(&scaled.repeated(sustaining_copies(&scaled)));
                // Only the live-record peak depends on the chunking.
                assert!(streamed.window_peak <= whole.window_peak, "{id:?} at {factor}");
                assert_eq!(
                    format!("{:?}", PipelineOutcome { window_peak: 0, ..streamed }),
                    format!("{:?}", PipelineOutcome { window_peak: 0, ..whole }),
                    "{id:?} at {factor}"
                );
            }
        }
    }

    #[test]
    fn products_differ_in_headroom() {
        let feed = tiny_feed();
        let nid = throughput_search(&IdsProduct::model(ProductId::NidSentry), &feed, 1024.0);
        let fh = throughput_search(&IdsProduct::model(ProductId::FlowHunter), &feed, 1024.0);
        assert!(
            fh.zero_loss_pps > nid.zero_loss_pps,
            "the load-balanced 4-sensor product should outrun the single sensor: {fh:?} vs {nid:?}"
        );
    }
}
