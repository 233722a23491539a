//! Per-packet keyed state: the hash containers detectors and deployments
//! keep, answering by key and never in order.
//!
//! The root `clippy.toml` bans the std hash containers in every crate;
//! this module holds the workspace's one audited exception.

use std::borrow::Borrow;
use std::hash::Hash;
use std::net::Ipv4Addr;

/// State kept per key — a bucket per source, a cooldown per detector, a
/// flag per host, a learned baseline per port or token — looked up once
/// per packet, so it hashes.
///
/// It answers by key, by size and by order-free totals, and offers no
/// iteration, so its hash order cannot reach a report. The detectors'
/// counters, cooldowns and baselines and every [`HostSet`] keep their
/// state here, so the hash order is audited once, at this field.
#[derive(Debug, Clone)]
pub struct KeyedState<K, V> {
    #[expect(
        clippy::disallowed_types,
        reason = "keyed access only: KeyedState answers by key, by count and by an order-free \
                  total, and never iterates in hash order"
    )]
    states: std::collections::HashMap<K, V>,
}

impl<K, V> Default for KeyedState<K, V> {
    fn default() -> Self {
        Self { states: Default::default() }
    }
}

impl<K: Eq + Hash, V: PartialEq> PartialEq for KeyedState<K, V> {
    fn eq(&self, other: &Self) -> bool {
        self.states == other.states
    }
}

impl<K: Eq + Hash, V: Eq> Eq for KeyedState<K, V> {}

impl<K: Eq + Hash, V> KeyedState<K, V> {
    /// The state of `key`, if it has one. `key` may be a borrowed form
    /// of `K` (a `&[u8]` for a `Vec<u8>` key), so a lookup never allocates.
    pub fn state_of<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        self.states.get(key)
    }

    /// The state of `key`, made by `init` if it has none yet.
    pub fn state_or_insert(&mut self, key: K, init: impl FnOnce() -> V) -> &mut V {
        self.states.entry(key).or_insert_with(init)
    }

    /// Set the state of `key`; its previous state, if any.
    pub fn set_state(&mut self, key: K, state: V) -> Option<V> {
        self.states.insert(key, state)
    }

    /// How many keys have a state.
    pub fn key_count(&self) -> usize {
        self.states.len()
    }

    /// Forget every key.
    pub fn clear_states(&mut self) {
        self.states.clear();
    }

    /// `f` summed over every key and its state: a total that no order can
    /// change.
    pub fn total_over_states(&self, f: impl Fn(&K, &V) -> usize) -> usize {
        self.states.iter().map(|(key, state)| f(key, state)).sum()
    }
}

/// A set of IPv4 hosts — monitored, known or blocked — that answers
/// membership and size.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HostSet(KeyedState<Ipv4Addr, ()>);

impl HostSet {
    /// Whether `host` is in the set.
    pub fn has_host(&self, host: Ipv4Addr) -> bool {
        self.0.state_of(&host).is_some()
    }

    /// Add `host`; whether it was new.
    pub fn add_host(&mut self, host: Ipv4Addr) -> bool {
        self.0.set_state(host, ()).is_none()
    }

    /// How many hosts the set holds.
    pub fn host_count(&self) -> usize {
        self.0.key_count()
    }
}

impl FromIterator<Ipv4Addr> for HostSet {
    fn from_iter<T: IntoIterator<Item = Ipv4Addr>>(hosts: T) -> Self {
        let mut set = Self::default();
        for host in hosts {
            set.add_host(host);
        }
        set
    }
}
