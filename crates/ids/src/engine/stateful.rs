//! Windowed, keyed counters shared by the stateful detectors.
//!
//! Scan, sweep, flood and brute-force detection are all "too many X per
//! key per second" questions. These counters use one-second tumbling
//! buckets (O(1) per observation, bounded state) plus a per-key cooldown so
//! a sustained attack raises one alert per cooldown period instead of one
//! per packet — real consoles rate-limit exactly this way, and without it
//! the monitor stage would melt during floods.

use crate::keyed::KeyedState;
use idse_sim::{SimDuration, SimTime};
use std::hash::Hash;

/// A per-key event-rate counter over one-second tumbling buckets.
#[derive(Debug, Clone)]
pub struct RateCounter<K: Eq + Hash + Clone> {
    buckets: KeyedState<K, (u64, u32)>, // key -> (bucket epoch-second, count)
}

impl<K: Eq + Hash + Clone> Default for RateCounter<K> {
    fn default() -> Self {
        Self { buckets: KeyedState::default() }
    }
}

impl<K: Eq + Hash + Clone> RateCounter<K> {
    /// An empty counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one event for `key` at `now`; returns the count within the
    /// current one-second bucket (including this event).
    pub fn record(&mut self, now: SimTime, key: K) -> u32 {
        let second = now.as_nanos() / 1_000_000_000;
        let entry = self.buckets.state_or_insert(key, || (second, 0));
        if entry.0 != second {
            *entry = (second, 0);
        }
        entry.1 += 1;
        entry.1
    }

    /// Number of tracked keys (state accounting).
    pub fn keys(&self) -> usize {
        self.buckets.key_count()
    }
}

/// A per-key distinct-value counter over one-second tumbling buckets
/// (e.g. distinct destination ports per source — the port-scan signal).
#[derive(Debug, Clone)]
pub struct DistinctCounter<K: Eq + Hash + Clone, V: Eq + Hash> {
    buckets: KeyedState<K, (u64, KeyedState<V, ()>)>,
}

impl<K: Eq + Hash + Clone, V: Eq + Hash> Default for DistinctCounter<K, V> {
    fn default() -> Self {
        Self { buckets: KeyedState::default() }
    }
}

impl<K: Eq + Hash + Clone, V: Eq + Hash> DistinctCounter<K, V> {
    /// An empty counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record `value` for `key` at `now`; returns the distinct-value count
    /// within the current one-second bucket.
    pub fn record(&mut self, now: SimTime, key: K, value: V) -> u32 {
        let second = now.as_nanos() / 1_000_000_000;
        let entry = self.buckets.state_or_insert(key, || (second, KeyedState::default()));
        if entry.0 != second {
            entry.0 = second;
            entry.1.clear_states();
        }
        entry.1.set_state(value, ());
        entry.1.key_count() as u32
    }

    /// Number of tracked keys.
    pub fn keys(&self) -> usize {
        self.buckets.key_count()
    }

    /// Approximate retained bytes (rough: 64 per key + 16 per value).
    pub fn approx_bytes(&self) -> usize {
        self.buckets.total_over_states(|_, (_, set)| 64 + set.key_count() * 16)
    }
}

/// Per-(detector, key) cooldown gate.
#[derive(Debug, Clone)]
pub struct Cooldown<K: Eq + Hash + Clone> {
    last_fire: KeyedState<K, SimTime>,
    period: SimDuration,
}

impl<K: Eq + Hash + Clone> Cooldown<K> {
    /// A gate that allows one firing per `period` per key.
    pub fn new(period: SimDuration) -> Self {
        Self { last_fire: KeyedState::default(), period }
    }

    /// Returns true (and arms the cooldown) if `key` may fire at `now`.
    pub fn try_fire(&mut self, now: SimTime, key: K) -> bool {
        match self.last_fire.state_of(&key) {
            Some(&t) if now.saturating_since(t) < self.period && now >= t => false,
            _ => {
                self.last_fire.set_state(key, now);
                true
            }
        }
    }

    /// Number of tracked keys.
    pub fn keys(&self) -> usize {
        self.last_fire.key_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_counter_buckets_by_second() {
        let mut c = RateCounter::new();
        let k = "src";
        assert_eq!(c.record(SimTime::from_millis(100), k), 1);
        assert_eq!(c.record(SimTime::from_millis(900), k), 2);
        // New second: bucket resets.
        assert_eq!(c.record(SimTime::from_millis(1100), k), 1);
    }

    #[test]
    fn rate_counter_keys_are_independent() {
        let mut c = RateCounter::new();
        c.record(SimTime::ZERO, "a");
        c.record(SimTime::ZERO, "a");
        assert_eq!(c.record(SimTime::ZERO, "b"), 1);
        assert_eq!(c.keys(), 2);
    }

    #[test]
    fn distinct_counter_counts_uniques() {
        let mut c = DistinctCounter::new();
        let k = "scanner";
        assert_eq!(c.record(SimTime::ZERO, k, 80u16), 1);
        assert_eq!(c.record(SimTime::ZERO, k, 80u16), 1);
        assert_eq!(c.record(SimTime::ZERO, k, 81u16), 2);
        assert_eq!(c.record(SimTime::from_secs(2), k, 81u16), 1);
        assert!(c.approx_bytes() > 0);
    }

    #[test]
    fn cooldown_limits_firing() {
        let mut g = Cooldown::new(SimDuration::from_secs(2));
        assert!(g.try_fire(SimTime::ZERO, "k"));
        assert!(!g.try_fire(SimTime::from_millis(500), "k"));
        assert!(!g.try_fire(SimTime::from_millis(1999), "k"));
        assert!(g.try_fire(SimTime::from_secs(2), "k"));
        assert!(g.try_fire(SimTime::from_millis(100), "other"));
    }
}
