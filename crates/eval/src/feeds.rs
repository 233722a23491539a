//! Test feeds: the canned datasets an evaluation replays.
//!
//! A feed is a `(training, test)` pair: a known-benign training trace for
//! baseline learning, and a test trace of background + campaign with
//! ground truth. Feeds are pure functions of `(profile, rates, seeds)` —
//! the reproducibility requirement — and the seeds for training, test
//! background, and campaign are all independent streams.
//!
//! Since the `RecordStream` redesign the background traces are produced by
//! streaming generation: [`TestFeed::build`] is literally a `collect()` of
//! the stream configs returned by [`TestFeed::training_stream`] and
//! [`TestFeed::background_stream`]. Constant-memory consumers use those
//! configs directly (see `crate::streaming`); the materialized feed and
//! the streamed feed are byte-identical by construction and by test.

use idse_attacks::{Campaign, CampaignConfig};
use idse_ids::pipeline::{PipelineRunner, RunConfig};
use idse_ids::products::IdsProduct;
use idse_net::trace::Trace;
use idse_sim::SimDuration;
use idse_traffic::{
    GeneratorConfig, RecordStream, SiteProfile, StreamConfig, DEFAULT_CHUNK_RECORDS,
};
use std::net::Ipv4Addr;

/// A complete canned dataset.
#[derive(Debug, Clone)]
pub struct TestFeed {
    /// Site profile the feed models.
    pub profile: SiteProfile,
    /// Known-benign training trace.
    pub training: Trace,
    /// The benign background of the test window, before the campaign is
    /// merged in (the load-test replay source: realistic traffic, per the
    /// paper's lesson 1).
    pub background: Trace,
    /// Test trace: background merged with the labeled campaign.
    pub test: Trace,
    /// Server hosts (host-agent deployment points).
    pub servers: Vec<Ipv4Addr>,
}

/// Feed parameters.
///
/// Construct with [`FeedConfig::builder`]; the struct is `#[non_exhaustive]`
/// so new knobs (streaming chunk size, shard count, host scaling) can grow
/// without breaking downstream literals.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct FeedConfig {
    /// Session arrivals per second in both traces.
    pub session_rate: f64,
    /// Training trace length.
    pub training_span: SimDuration,
    /// Test trace length.
    pub test_span: SimDuration,
    /// Campaign intensity (instances of each attack family).
    pub campaign_intensity: u32,
    /// Master seed.
    pub seed: u64,
    /// Host-count override for scaling profiles (used by
    /// [`TestFeed::realtime_cluster`]); `None` keeps the preset profile.
    pub hosts: Option<u32>,
    /// Records per chunk when the feed is consumed as a stream. Pure
    /// batching: never changes the bytes produced.
    pub chunk_records: usize,
    /// Flow-key shard count for sharded streaming runs (1 = unsharded).
    /// Part of the experiment identity recorded in provenance.
    pub shards: u32,
}

impl Default for FeedConfig {
    fn default() -> Self {
        Self {
            session_rate: 25.0,
            training_span: SimDuration::from_secs(30),
            test_span: SimDuration::from_secs(60),
            campaign_intensity: 2,
            seed: 0x1d5e,
            hosts: None,
            chunk_records: DEFAULT_CHUNK_RECORDS,
            shards: 1,
        }
    }
}

impl FeedConfig {
    /// Start a builder seeded with the defaults.
    pub fn builder() -> FeedConfigBuilder {
        FeedConfigBuilder::default()
    }
}

/// Builder for [`FeedConfig`].
///
/// `transactions(n)` is sugar for sizing the test window: with a session
/// being one transaction (one benign canonical flow or one attack
/// instance), `test_span` is derived as `n / session_rate` when the config
/// is built, regardless of call order.
#[derive(Debug, Clone, Default)]
pub struct FeedConfigBuilder {
    config: FeedConfig,
    transactions: Option<u64>,
}

impl FeedConfigBuilder {
    /// Session arrivals per second.
    pub fn session_rate(mut self, rate: f64) -> Self {
        self.config.session_rate = rate;
        self
    }

    /// Training trace length.
    pub fn training_span(mut self, span: SimDuration) -> Self {
        self.config.training_span = span;
        self
    }

    /// Test trace length (overridden by [`Self::transactions`] if both are
    /// set).
    pub fn test_span(mut self, span: SimDuration) -> Self {
        self.config.test_span = span;
        self
    }

    /// Target transaction count for the test window; derives `test_span`
    /// as `n / session_rate` at build time.
    pub fn transactions(mut self, n: u64) -> Self {
        self.transactions = Some(n);
        self
    }

    /// Host-count override for scaling profiles.
    pub fn hosts(mut self, hosts: u32) -> Self {
        self.config.hosts = Some(hosts);
        self
    }

    /// Campaign intensity (instances of each attack family).
    pub fn campaign_intensity(mut self, n: u32) -> Self {
        self.config.campaign_intensity = n;
        self
    }

    /// Master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Records per chunk for streaming consumption (min 1).
    pub fn chunk_records(mut self, n: usize) -> Self {
        self.config.chunk_records = n.max(1);
        self
    }

    /// Flow-key shard count for sharded streaming runs (min 1).
    pub fn shards(mut self, n: u32) -> Self {
        self.config.shards = n.max(1);
        self
    }

    /// Finalize the config.
    pub fn build(self) -> FeedConfig {
        let mut c = self.config;
        if let Some(n) = self.transactions {
            c.test_span = SimDuration::from_secs_f64(n as f64 / c.session_rate.max(1e-9));
        }
        c
    }
}

impl TestFeed {
    /// Build a feed for `profile` under `config`.
    ///
    /// The background traces are `collect()`s of the corresponding stream
    /// configs — the materialized path is definitionally the streamed
    /// bytes (`stream_collect_matches_materialized` in `idse-traffic`
    /// proves chunking never changes them).
    pub fn build(profile: SiteProfile, config: &FeedConfig) -> Self {
        let training = RecordStream::new(Self::training_stream(&profile, config))
            .expect("feed session rate within MAX_SESSION_RATE")
            .collect_trace();
        let background = RecordStream::new(Self::background_stream(&profile, config))
            .expect("feed session rate within MAX_SESSION_RATE")
            .collect_trace();
        let mut test = background.clone();
        test.merge(Self::campaign_trace(&profile, config));

        let servers = Self::server_hosts(&profile);
        Self { profile, training, background, test, servers }
    }

    /// `product`'s runner, trained once on this feed's training trace, with
    /// host agents on the feed's servers. Batch runs reconfigure it per
    /// sensitivity, probe or fault plan instead of training again.
    pub fn trained_runner(&self, product: &IdsProduct) -> PipelineRunner {
        let config = RunConfig { monitored_hosts: self.servers.clone(), ..RunConfig::default() };
        PipelineRunner::new(product.clone(), config).with_training(&self.training)
    }

    /// Stream config for the known-benign training window.
    pub fn training_stream(profile: &SiteProfile, config: &FeedConfig) -> StreamConfig {
        StreamConfig::new(GeneratorConfig::new(
            profile.clone(),
            config.session_rate,
            config.training_span,
            config.seed ^ 0x7261_696e, // "rain" — training stream
        ))
        .with_chunk_records(config.chunk_records)
    }

    /// Stream config for the benign background of the test window. Sharded
    /// consumers call `.with_shard(s, config.shards)` on the result.
    pub fn background_stream(profile: &SiteProfile, config: &FeedConfig) -> StreamConfig {
        StreamConfig::new(GeneratorConfig::new(
            profile.clone(),
            config.session_rate,
            config.test_span,
            config.seed ^ 0x7465_7374, // "test" — test background stream
        ))
        .with_chunk_records(config.chunk_records)
    }

    /// The labeled campaign trace merged over the background. Small
    /// (O(intensity)), so it stays materialized even in streaming runs.
    pub fn campaign_trace(profile: &SiteProfile, config: &FeedConfig) -> Trace {
        let ccfg = CampaignConfig {
            span: config.test_span,
            seed: config.seed ^ 0x6174_6b73, // "atks" — campaign stream
            intensity: config.campaign_intensity,
        };
        Campaign::standard_mix(profile, &ccfg).generate(&ccfg)
    }

    /// Host-agent deployment points for `profile`.
    pub fn server_hosts(profile: &SiteProfile) -> Vec<Ipv4Addr> {
        (1..=profile.server_hosts.min(8)).map(|i| profile.servers.host(i)).collect()
    }

    /// The standard e-commerce feed.
    pub fn ecommerce(config: &FeedConfig) -> Self {
        Self::build(SiteProfile::ecommerce_web(), config)
    }

    /// The standard real-time cluster feed. `config.hosts` scales the
    /// profile's host count (widening the address block as needed).
    pub fn realtime_cluster(config: &FeedConfig) -> Self {
        Self::build(Self::realtime_cluster_profile(config), config)
    }

    /// The profile [`Self::realtime_cluster`] would use for `config`.
    pub fn realtime_cluster_profile(config: &FeedConfig) -> SiteProfile {
        match config.hosts {
            Some(h) => SiteProfile::realtime_cluster_scaled(h),
            None => SiteProfile::realtime_cluster(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feed_is_deterministic() {
        let cfg = FeedConfig::builder().test_span(SimDuration::from_secs(20)).build();
        let a = TestFeed::ecommerce(&cfg);
        let b = TestFeed::ecommerce(&cfg);
        assert_eq!(a.test.len(), b.test.len());
        assert_eq!(a.training.len(), b.training.len());
        assert_eq!(a.test.attack_packets(), b.test.attack_packets());
    }

    #[test]
    fn training_is_clean_test_is_mixed() {
        let cfg = FeedConfig::builder().test_span(SimDuration::from_secs(20)).build();
        let f = TestFeed::ecommerce(&cfg);
        assert_eq!(f.training.attack_packets(), 0);
        assert!(f.test.attack_packets() > 0);
        assert!(!f.servers.is_empty());
        // All nine attack classes present at intensity ≥ 1.
        let classes: std::collections::BTreeSet<_> =
            f.test.attack_instances().iter().map(|g| g.class).collect();
        assert_eq!(classes.len(), 9);
    }

    #[test]
    fn different_seeds_differ() {
        let a = TestFeed::ecommerce(
            &FeedConfig::builder().seed(1).test_span(SimDuration::from_secs(10)).build(),
        );
        let b = TestFeed::ecommerce(
            &FeedConfig::builder().seed(2).test_span(SimDuration::from_secs(10)).build(),
        );
        assert_ne!(a.test.len(), b.test.len());
    }

    #[test]
    fn builder_derives_span_from_transactions() {
        let cfg = FeedConfig::builder().session_rate(20.0).transactions(1000).build();
        assert!((cfg.test_span.as_secs_f64() - 50.0).abs() < 1e-9);
        // Order-independent: rate set after transactions gives the same span.
        let cfg2 = FeedConfig::builder().transactions(1000).session_rate(20.0).build();
        assert_eq!(cfg.test_span, cfg2.test_span);
    }

    #[test]
    fn materialized_feed_is_the_streamed_bytes() {
        // The feed's background must be exactly the collect() of the
        // advertised stream config — the adapter contract.
        let cfg = FeedConfig::builder().test_span(SimDuration::from_secs(10)).build();
        let f = TestFeed::realtime_cluster(&cfg);
        let streamed = RecordStream::new(TestFeed::background_stream(&f.profile, &cfg))
            .unwrap()
            .collect_trace();
        assert_eq!(f.background.len(), streamed.len());
        for (a, b) in f.background.records().iter().zip(streamed.records().iter()) {
            assert_eq!(a.at, b.at);
            assert_eq!(&a.packet, &b.packet);
        }
    }

    #[test]
    fn hosts_override_scales_the_cluster_profile() {
        let cfg = FeedConfig::builder().hosts(1000).test_span(SimDuration::from_secs(5)).build();
        let p = TestFeed::realtime_cluster_profile(&cfg);
        assert_eq!(p.client_hosts, 1000);
        let f = TestFeed::realtime_cluster(&cfg);
        assert_eq!(f.profile.client_hosts, 1000);
    }
}
