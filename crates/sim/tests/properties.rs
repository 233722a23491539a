//! Property-based tests for the simulation kernel's invariants.

use idse_sim::event::{CLASS_DERIVED, CLASS_INPUT};
use idse_sim::stats::Summary;
use idse_sim::{EventQueue, RngStream, SimDuration, SimTime};
use proptest::prelude::*;
use std::collections::BTreeMap;

proptest! {
    /// Time arithmetic: (t + a) + b == (t + b) + a for in-range values.
    #[test]
    fn time_addition_commutes(t in 0u64..1u64 << 40, a in 0u64..1u64 << 30, b in 0u64..1u64 << 30) {
        let base = SimTime::from_nanos(t);
        let da = SimDuration::from_nanos(a);
        let db = SimDuration::from_nanos(b);
        prop_assert_eq!((base + da) + db, (base + db) + da);
    }

    /// Subtraction inverts addition within range.
    #[test]
    fn time_sub_inverts_add(t in 0u64..1u64 << 40, d in 0u64..1u64 << 30) {
        let base = SimTime::from_nanos(t);
        let dur = SimDuration::from_nanos(d);
        prop_assert_eq!((base + dur) - base, dur);
        prop_assert_eq!((base + dur).saturating_since(base), dur);
    }

    /// Seconds round trip within one nanosecond of quantization error.
    #[test]
    fn seconds_round_trip(ns in 0u64..1u64 << 50) {
        let d = SimDuration::from_nanos(ns);
        let back = SimDuration::from_secs_f64(d.as_secs_f64());
        let diff = back.as_nanos().abs_diff(d.as_nanos());
        // f64 has 52 mantissa bits; below 2^50 ns we stay within ~256 ns.
        prop_assert!(diff <= 256, "{ns} -> {diff}");
    }

    /// The event queue is a stable priority queue: with external inputs
    /// and ordinary events mixed, pops come out exactly as a stable sort
    /// on `(at, class, seq)` orders them.
    #[test]
    fn event_queue_is_stable_priority_queue(
        events in prop::collection::vec((0u64..1000, any::<bool>()), 1..200),
    ) {
        let mut q = EventQueue::new();
        let mut expected: Vec<(u64, u8, u64, usize)> = Vec::with_capacity(events.len());
        for (i, &(t, input)) in events.iter().enumerate() {
            let at = SimTime::from_nanos(t);
            let class = if input {
                q.schedule_input(at, i);
                CLASS_INPUT
            } else {
                q.schedule(at, i);
                CLASS_DERIVED
            };
            expected.push((t, class, i as u64, i));
        }
        expected.sort_by_key(|&(t, class, seq, _)| (t, class, seq));
        let mut popped = Vec::with_capacity(events.len());
        while let Some(ev) = q.pop() {
            popped.push((ev.at.as_nanos(), ev.class, ev.seq, ev.event));
        }
        prop_assert_eq!(popped, expected);
    }

    /// Welford summary matches the naive two-pass computation.
    #[test]
    fn summary_matches_naive(xs in prop::collection::vec(-1e6f64..1e6, 1..200)) {
        let mut s = Summary::new();
        xs.iter().for_each(|&x| s.record(x));
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        prop_assert!((s.mean() - mean).abs() < 1e-6 * (1.0 + mean.abs()));
        prop_assert!((s.variance() - var).abs() < 1e-4 * (1.0 + var));
    }

    /// Merging arbitrary splits of a sample equals the whole.
    #[test]
    fn summary_merge_is_split_invariant(
        xs in prop::collection::vec(-1e5f64..1e5, 2..150),
        cut_frac in 0.0f64..1.0,
    ) {
        let cut = ((xs.len() as f64 * cut_frac) as usize).min(xs.len());
        let mut whole = Summary::new();
        xs.iter().for_each(|&x| whole.record(x));
        let mut a = Summary::new();
        let mut b = Summary::new();
        xs[..cut].iter().for_each(|&x| a.record(x));
        xs[cut..].iter().for_each(|&x| b.record(x));
        a.merge(&b);
        prop_assert_eq!(a.count(), whole.count());
        prop_assert!((a.mean() - whole.mean()).abs() < 1e-6 * (1.0 + whole.mean().abs()));
    }

    /// Derived RNG streams are reproducible and label-sensitive.
    #[test]
    fn rng_streams_reproducible(seed in any::<u64>(), label in "[a-z]{1,12}") {
        let mut a = RngStream::derive(seed, &label);
        let mut b = RngStream::derive(seed, &label);
        for _ in 0..16 {
            prop_assert_eq!(a.uniform_u64(0, u64::MAX - 1), b.uniform_u64(0, u64::MAX - 1));
        }
    }

    /// Weighted pick never selects a zero-weight entry.
    #[test]
    fn pick_weighted_avoids_zero_weights(
        seed in any::<u64>(),
        weights in prop::collection::vec(0.0f64..10.0, 1..20),
    ) {
        prop_assume!(weights.iter().any(|&w| w > 0.0));
        let mut rng = RngStream::derive(seed, "pw");
        for _ in 0..32 {
            let idx = rng.pick_weighted(&weights);
            prop_assert!(weights[idx] > 0.0);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Differential check against an ordered-map model keyed by
    /// `(at, class, seq)`: schedules, inputs and pops interleave the way a
    /// chunked driver uses the queue. Inputs mostly continue a time-sorted
    /// run (with ties), sometimes land earlier than the run's tail, and
    /// derived events are scheduled at or after the last popped instant.
    /// After every operation `peek`, `len` and `is_empty` agree with the
    /// model, and every pop takes the model's first entry.
    #[test]
    fn event_queue_matches_ordered_map_model(
        ops in prop::collection::vec((0u8..4, 0u64..40), 1..400),
    ) {
        let mut q = EventQueue::new();
        let mut model: BTreeMap<(u64, u8, u64), usize> = BTreeMap::new();
        let (mut now, mut input_tail) = (0u64, 0u64);
        for (i, &(op, dt)) in ops.iter().enumerate() {
            let seq = q.scheduled_total();
            match op {
                // Derived follow-up of the event just dispatched.
                0 => {
                    q.schedule(SimTime::from_nanos(now + dt), i);
                    model.insert((now + dt, CLASS_DERIVED, seq), i);
                }
                // Next input of a time-sorted run; `dt` 0 is a tie.
                1 => {
                    input_tail += dt / 8;
                    q.schedule_input(SimTime::from_nanos(input_tail), i);
                    model.insert((input_tail, CLASS_INPUT, seq), i);
                }
                // An input earlier than the run's tail.
                2 => {
                    let at = input_tail.saturating_sub(dt);
                    q.schedule_input(SimTime::from_nanos(at), i);
                    model.insert((at, CLASS_INPUT, seq), i);
                }
                _ => {
                    let popped = q.pop().map(|s| (s.at.as_nanos(), s.class, s.seq, s.event));
                    let expected = model.pop_first().map(|((at, c, s), e)| (at, c, s, e));
                    prop_assert_eq!(popped, expected);
                    if let Some((at, ..)) = popped {
                        now = at;
                    }
                }
            }
            let peeked = q.peek().map(|s| (s.at.as_nanos(), s.class, s.seq, s.event));
            let first = model.first_key_value().map(|(&(at, c, s), &e)| (at, c, s, e));
            prop_assert_eq!(peeked, first);
            prop_assert_eq!(q.len(), model.len());
            prop_assert_eq!(q.is_empty(), model.is_empty());
        }
        while let Some(s) = q.pop() {
            let expected = model.pop_first().map(|((at, c, s), e)| (at, c, s, e));
            prop_assert_eq!(Some((s.at.as_nanos(), s.class, s.seq, s.event)), expected);
        }
        prop_assert!(model.is_empty());
    }
}
