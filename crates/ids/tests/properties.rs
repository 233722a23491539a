//! Property-based tests for the IDS engines and components.

use idse_ids::aho::{contains, AhoCorasick};
use idse_ids::components::{FailureBehavior, ServeOutcome, ServiceStation};
use idse_ids::engine::Sensitivity;
use idse_sim::{SimDuration, SimTime};
use proptest::prelude::*;

fn arb_patterns() -> impl Strategy<Value = Vec<Vec<u8>>> {
    prop::collection::vec(prop::collection::vec(any::<u8>(), 1..8), 1..12)
}

proptest! {
    /// Aho–Corasick agrees with the naive scanner on which patterns occur.
    #[test]
    fn aho_corasick_equals_naive(
        patterns in arb_patterns(),
        haystack in prop::collection::vec(any::<u8>(), 0..300),
    ) {
        let ac = AhoCorasick::new(&patterns);
        let got = ac.matching_patterns(&haystack);
        let want: Vec<u32> = patterns
            .iter()
            .enumerate()
            .filter(|(_, p)| contains(&haystack, p))
            .map(|(i, _)| i as u32)
            .collect();
        prop_assert_eq!(got, want);
    }

    /// The skip-ahead substring check agrees with the plain window scan.
    /// A three-letter alphabet makes partial and full matches common, and
    /// haystacks up to 40 bytes cross the eight-byte word boundaries.
    #[test]
    fn contains_equals_window_scan(
        haystack in prop::collection::vec(0u8..3, 0..40),
        needle in prop::collection::vec(0u8..3, 0..6),
        plant in any::<prop::sample::Index>(),
        planted in any::<bool>(),
    ) {
        let mut haystack: Vec<u8> = haystack.iter().map(|b| b"abc"[*b as usize]).collect();
        let needle: Vec<u8> = needle.iter().map(|b| b"abc"[*b as usize]).collect();
        if planted && needle.len() <= haystack.len() {
            let at = plant.index(haystack.len() - needle.len() + 1);
            haystack[at..at + needle.len()].copy_from_slice(&needle);
        }
        let oracle = needle.is_empty()
            || (needle.len() <= haystack.len()
                && haystack.windows(needle.len()).any(|w| w == needle.as_slice()));
        prop_assert_eq!(contains(&haystack, &needle), oracle);
    }

    /// Every reported match end position actually ends an occurrence.
    #[test]
    fn aho_corasick_match_positions_are_real(
        patterns in arb_patterns(),
        haystack in prop::collection::vec(any::<u8>(), 0..200),
    ) {
        let ac = AhoCorasick::new(&patterns);
        for m in ac.find_all(&haystack) {
            let pat = &patterns[m.pattern as usize];
            prop_assert!(m.end >= pat.len());
            prop_assert_eq!(&haystack[m.end - pat.len()..m.end], pat.as_slice());
        }
    }

    /// Matches found in a prefix are found in the whole (monotonicity).
    #[test]
    fn aho_corasick_prefix_monotone(
        patterns in arb_patterns(),
        haystack in prop::collection::vec(any::<u8>(), 1..200),
        cut in any::<prop::sample::Index>(),
    ) {
        let ac = AhoCorasick::new(&patterns);
        let cut = cut.index(haystack.len());
        let prefix_matches = ac.find_all(&haystack[..cut]);
        let whole_matches = ac.find_all(&haystack);
        for m in prefix_matches {
            prop_assert!(whole_matches.contains(&m));
        }
    }

    /// Sensitivity thresholds interpolate monotonically between the lax
    /// and strict anchors.
    #[test]
    fn sensitivity_threshold_monotone(lax in 1.0f64..1000.0, strict in 0.0f64..1.0, a in 0.0f64..1.0, b in 0.0f64..1.0) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let t_lo = Sensitivity::new(lo).threshold(lax, strict);
        let t_hi = Sensitivity::new(hi).threshold(lax, strict);
        prop_assert!(t_hi <= t_lo, "higher sensitivity must not raise a count threshold");
        prop_assert!(t_lo <= lax && t_hi >= strict);
    }

    /// Service stations conserve work: offered = processed + dropped, and
    /// completion times are monotone for monotone arrivals.
    #[test]
    fn service_station_conserves_and_orders(
        jobs in prop::collection::vec((0u64..1_000_000, 1.0f64..500.0), 1..100),
    ) {
        let mut station = ServiceStation::new(
            "prop",
            10_000.0,
            SimDuration::from_millis(50),
            0.9,
            FailureBehavior::RestartService { downtime: SimDuration::from_secs(1) },
        );
        let mut arrivals: Vec<(u64, f64)> = jobs;
        arrivals.sort_by_key(|&(t, _)| t);
        let mut last_done = SimTime::ZERO;
        for &(t, ops) in &arrivals {
            match station.serve(SimTime::from_micros(t), ops) {
                ServeOutcome::Done(done) => {
                    prop_assert!(done >= last_done, "FIFO completions must be monotone");
                    last_done = done;
                }
                ServeOutcome::Dropped | ServeOutcome::Failed => {}
            }
        }
        let c = station.counters();
        prop_assert_eq!(c.offered, arrivals.len() as u64);
        prop_assert_eq!(c.processed + c.dropped, c.offered);
    }
}
