//! Constant-memory streaming evaluation: chunked feeds, flow-key shards.
//!
//! The batch harness runs over a materialized test trace; at the
//! ROADMAP's million-flow scale that trace does not fit. This module
//! drives the Figure-1 pipeline directly from the `idse-traffic`
//! [`RecordStream`]:
//!
//! * each product's engines train once, before any shard job starts, in
//!   one fold over the training stream that never stores it, and every
//!   shard job deploys clones of them;
//! * each shard consumes a lazily merged stream of its background chunk
//!   sequence and its slice of the (small, materialized) campaign, in the
//!   exact order `Trace::merge` would produce ([`ShardFeed`]); the campaign
//!   is generated once per run and split by shard;
//! * one job per shard (or per shard and product group, when there are
//!   more workers than shards) runs on the [`idse_exec::Executor`] through
//!   [`run_shard_cancellable`]: it generates the shard's feed once and
//!   pushes every chunk into one pipeline session per product, so every
//!   product is scored on the same records, generated once per run;
//! * scoring happens incrementally through the same [`StreamLedger`] and
//!   the same [`join_alerts`] the batch harness scores with, so the two
//!   engines share one definition of the Figure 3 quantities and no
//!   record index over the full trace ever exists. The ledger does not
//!   depend on the product: each shard folds one, and the run merges them
//!   once and scores every product against the result;
//! * outcomes merge in deterministic shard order and telemetry flushes in
//!   `(product, shard)` order, so the resulting [`StreamScorecard`]s and
//!   event stream are byte-identical at any [`EvaluationRequest::jobs`]
//!   setting and any chunk size.
//!
//! Shard count *is* part of the experiment identity (a sharded pipeline
//! sees only its shard's cross-flow context), so it is recorded in the
//! scorecard and in feed provenance; byte-identity is guaranteed across
//! worker counts and chunk sizes, not across shard counts.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::confusion::{join_alerts, ConfusionCounts, StreamLedger};
use crate::feeds::{FeedConfig, TestFeed};
use crate::harness::EvaluationRequest;
use idse_exec::{CancelToken, Cancelled};
use idse_ids::engine::BenignObservation;
use idse_ids::pipeline::{PipelineRunner, PipelineSession, RunConfig, RunnerTraining};
use idse_ids::products::IdsProduct;
use idse_ids::Sensitivity;
use idse_net::trace::TraceRecord;
use idse_net::FlowKey;
use idse_sim::SimTime;
use idse_telemetry::Telemetry;
use idse_traffic::{flow_shard, RecordStream, Session, SessionMerge, SessionSynth};
use serde::{Deserialize, Serialize};

/// Sessions per training batch: the unit the executor's workers synthesize
/// ahead of the training fold.
const TRAINING_BATCH_SESSIONS: usize = 64;

/// One shard's lazily merged feed: the background [`RecordStream`] for
/// shard `s` merged in time order with shard `s`'s slice of the campaign.
/// Ties resolve background-first, matching the stable sort in
/// `Trace::merge`, so shard 0 of 1 reproduces the materialized test trace
/// byte for byte.
pub struct ShardFeed {
    bg: RecordStream,
    bg_buf: VecDeque<TraceRecord>,
    bg_done: bool,
    campaign: VecDeque<TraceRecord>,
    chunk_records: usize,
    shard: u32,
    shards: u32,
}

impl ShardFeed {
    /// The feed for `shard` of `config.shards`, over `profile`.
    pub fn new(profile: &idse_traffic::SiteProfile, config: &FeedConfig, shard: u32) -> Self {
        let campaign = campaign_shards(profile, config);
        Self::with_campaign(profile, config, shard, &campaign[shard as usize])
    }

    /// [`ShardFeed::new`] over shard `shard`'s slice of an already
    /// generated campaign (see [`campaign_shards`]), so a run that feeds
    /// many shards generates the campaign once.
    pub fn with_campaign(
        profile: &idse_traffic::SiteProfile,
        config: &FeedConfig,
        shard: u32,
        campaign: &[TraceRecord],
    ) -> Self {
        let stream_cfg =
            TestFeed::background_stream(profile, config).with_shard(shard, config.shards);
        let bg = RecordStream::new(stream_cfg).expect("feed session rate within MAX_SESSION_RATE");
        Self {
            bg,
            bg_buf: VecDeque::new(),
            bg_done: false,
            campaign: campaign.iter().cloned().collect(),
            chunk_records: config.chunk_records.max(1),
            shard,
            shards: config.shards.max(1),
        }
    }

    /// The 1-based canonical rank of this feed's chunk `chunk` among every
    /// shard's chunks, `chunk · shards + shard + 1`: the order in which
    /// [`CancelToken::stop_before_rank`] counts a stream run's chunk
    /// boundaries, the same at any worker count.
    pub fn chunk_rank(&self, chunk: u64) -> u64 {
        chunk * u64::from(self.shards) + u64::from(self.shard) + 1
    }

    fn refill(&mut self) {
        while self.bg_buf.is_empty() && !self.bg_done {
            match self.bg.next() {
                Some(chunk) => self.bg_buf.extend(chunk),
                None => self.bg_done = true,
            }
        }
    }

    fn next_record(&mut self) -> Option<TraceRecord> {
        self.refill();
        match (self.bg_buf.front(), self.campaign.front()) {
            (Some(b), Some(c)) if b.at <= c.at => self.bg_buf.pop_front(),
            (Some(_), Some(_)) | (None, Some(_)) => self.campaign.pop_front(),
            (Some(_), None) => self.bg_buf.pop_front(),
            (None, None) => None,
        }
    }
}

/// The campaign of `config`, split by flow-key shard: element `s` holds
/// shard `s`'s records in campaign order.
pub fn campaign_shards(
    profile: &idse_traffic::SiteProfile,
    config: &FeedConfig,
) -> Vec<Vec<TraceRecord>> {
    let mut shards = vec![Vec::new(); config.shards as usize];
    for r in TestFeed::campaign_trace(profile, config).records() {
        shards[flow_shard(r.packet.ip.src, r.packet.ip.dst, config.shards) as usize]
            .push(r.clone());
    }
    shards
}

impl Iterator for ShardFeed {
    type Item = Vec<TraceRecord>;

    /// The next chunk of up to `chunk_records` merged records.
    fn next(&mut self) -> Option<Vec<TraceRecord>> {
        let mut chunk = Vec::with_capacity(self.chunk_records);
        while chunk.len() < self.chunk_records {
            match self.next_record() {
                Some(rec) => chunk.push(rec),
                None => break,
            }
        }
        if chunk.is_empty() {
            None
        } else {
            Some(chunk)
        }
    }
}

/// What one product's session produced over one shard.
#[derive(Debug)]
pub struct ShardOutcome {
    /// Shard index.
    pub shard: u32,
    /// Attack ids with at least one alert.
    pub detected: BTreeSet<u32>,
    /// Distinct benign canonical flows falsely flagged.
    pub flagged: BTreeSet<FlowKey>,
    /// Raw alert count.
    pub alerts: u64,
    /// Packets offered to the deployment.
    pub offered: u64,
    /// Packets inspected by at least one engine.
    pub monitored: u64,
    /// Packets lost before inspection.
    pub lost: u64,
    /// `(attack, benign)` packets suppressed by automated blocking.
    pub blocked: (u64, u64),
    /// Peak live records in the pipeline window (the bounded-RSS figure).
    pub window_peak: usize,
    /// Virtual time the shard's run finished.
    pub finished_at: SimTime,
}

/// The run config of every streaming deployment: automated response armed,
/// host agents on the profile's servers.
fn stream_run_config(
    profile: &idse_traffic::SiteProfile,
    sensitivity: f64,
    telemetry: Telemetry,
) -> RunConfig {
    RunConfig {
        sensitivity: Sensitivity::new(sensitivity),
        monitored_hosts: TestFeed::server_hosts(profile),
        auto_response: true,
        telemetry,
        ..RunConfig::default()
    }
}

/// Run one shard for several products, with a cooperative cancellation
/// point at every chunk boundary.
///
/// Each of `runners` holds one product's trained engines under its own run
/// config. The shard's test window, `feed`, is generated once and never
/// materialized: every chunk goes to one pipeline session per runner, and
/// the chunk's `stream.chunk.records` progress counter to that runner's
/// telemetry. `ledger`, when given, folds the shard's records; it does not
/// depend on the product, so one fold per shard is enough. Returns one
/// outcome per runner, in `runners` order.
///
/// The token is checked once per chunk — between chunks, never mid-chunk,
/// whatever the number of runners — against the chunk's canonical rank
/// ([`ShardFeed::chunk_rank`]), so a token armed with `n` stops this shard
/// before its first chunk of rank `n` or more, whatever the other shard
/// jobs have done. Every product stops at the same record boundary, and
/// everything observed so far (including the progress counters) is a pure
/// function of the feed and `n`; the caller flushes the partial telemetry.
/// An explicit [`CancelToken::cancel`] is observed at the next chunk.
pub fn run_shard_cancellable(
    runners: &[PipelineRunner],
    mut feed: ShardFeed,
    mut ledger: Option<&mut StreamLedger>,
    cancel: &CancelToken,
) -> Result<Vec<ShardOutcome>, Cancelled> {
    let shard = feed.shard;
    let mut sessions: Vec<PipelineSession> = runners.iter().map(PipelineRunner::session).collect();
    let mut index = 0u64;
    while let Some(chunk) = feed.next() {
        if cancel.stop_before_rank(feed.chunk_rank(index)) {
            return Err(Cancelled);
        }
        #[cfg(test)]
        tests::jitter(shard, index);
        index += 1;
        if let Some(ledger) = ledger.as_deref_mut() {
            ledger.observe_chunk(&chunk);
        }
        let progress_at = chunk.last().map(|r| r.at.as_nanos()).unwrap_or(0);
        let records = chunk.len() as u64;
        for (runner, session) in runners.iter().zip(&mut sessions) {
            session.push_chunk(chunk.iter().cloned());
            runner.config().telemetry.counter(progress_at, "stream.chunk.records", records);
        }
    }
    Ok(sessions
        .into_iter()
        .map(|session| {
            let outcome = session.finish();
            let (detected, flagged) = join_alerts(&outcome.alerts, &outcome.alert_truths);
            ShardOutcome {
                shard,
                detected,
                flagged,
                alerts: outcome.alerts.len() as u64,
                offered: outcome.offered,
                monitored: outcome.monitored,
                lost: outcome.missed,
                blocked: outcome.blocked,
                window_peak: outcome.window_peak,
                finished_at: outcome.finished_at,
            }
        })
        .collect())
}

/// How many product groups split each shard's products between them: one
/// job per shard and group, and just enough groups that the job count,
/// `groups × shards`, never falls below `min(workers, products × shards)`.
/// With at least as many shards as workers that is one group, so each
/// shard's feed is generated once per run.
fn product_groups(products: usize, workers: usize, shards: u32) -> usize {
    products.min(workers.div_ceil(shards.max(1) as usize)).max(1)
}

/// The merged, serializable result of one product's streaming run.
///
/// Serialization is byte-stable: every map is ordered, every number is
/// reduced in deterministic shard order, so `to_json` is the artifact CI
/// diffs across `--jobs` settings and chunk sizes.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct StreamScorecard {
    /// Product name.
    pub product: String,
    /// Master feed seed.
    pub seed: u64,
    /// Flow-key shard count the run used (part of experiment identity).
    pub shards: u32,
    /// Records generated across all shards.
    pub records: u64,
    /// Transactions `|T|` (distinct benign flows + attack instances).
    pub transactions: u64,
    /// Actual intrusions `|A|`.
    pub actual_attacks: u64,
    /// Attack instances with at least one alert.
    pub detected_attacks: u64,
    /// Benign flows falsely flagged `|D − A|`.
    pub false_positives: u64,
    /// Attack instances missed `|A − D|`.
    pub missed_attacks: u64,
    /// The paper's FP ratio `|D − A| / |T|`.
    pub false_positive_ratio: f64,
    /// The paper's FN ratio `|A − D| / |T|`.
    pub false_negative_ratio: f64,
    /// Detection rate over attack instances.
    pub detection_rate: f64,
    /// Raw alert volume.
    pub alerts: u64,
    /// Packets offered to the deployment.
    pub offered: u64,
    /// Packets inspected by at least one engine.
    pub monitored: u64,
    /// Packets lost before inspection.
    pub lost: u64,
    /// Attack packets suppressed by automated blocking.
    pub blocked_attack: u64,
    /// Benign packets suppressed by automated blocking.
    pub blocked_benign: u64,
    /// Latest virtual finish time across shards, in nanoseconds.
    pub finished_at_ns: u64,
    /// Per-class `(detected, total)` attack-instance counts.
    pub per_class: BTreeMap<String, (u32, u32)>,
}

impl StreamScorecard {
    /// Compact, byte-stable JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("scorecard serializes")
    }
}

/// One product's streaming evaluation: the scorecard plus the underlying
/// confusion counts.
#[derive(Debug)]
pub struct StreamEvaluation {
    /// The merged scorecard.
    pub scorecard: StreamScorecard,
    /// Figure 3 quantities backing it.
    pub confusion: ConfusionCounts,
    /// Max peak live records across shards — the bounded-RSS figure.
    /// Deliberately *not* part of the scorecard: it scales with the
    /// chunk size (pure batching), while the scorecard bytes must be
    /// identical at any chunk size.
    pub window_peak: usize,
}

impl EvaluationRequest {
    /// Evaluate products over the streamed real-time-cluster feed this
    /// request describes, at a fixed `sensitivity`.
    ///
    /// Each product's engines train once, on the request's executor, in one
    /// fold over the training stream that is never stored. Then one
    /// job per shard generates the shard's feed once and drives every
    /// product's deployment over it; when the executor has more workers
    /// than there are shards, each shard's products split into groups, one
    /// job per shard and group (see [`run_shard_cancellable`]). Outcomes
    /// merge in shard order and the shard ledgers merge once, so the
    /// returned scorecards are byte-identical for any
    /// [`EvaluationRequest::jobs`] setting and any `chunk_records`. Memory
    /// stays O(chunk + in-flight sessions + distinct-flow hashes) — the
    /// test window is never materialized.
    pub fn evaluate_stream(
        &self,
        products: &[IdsProduct],
        sensitivity: f64,
    ) -> Vec<StreamEvaluation> {
        self.evaluate_stream_cancellable(products, sensitivity, &CancelToken::new())
            .expect("a fresh token never cancels")
    }

    /// [`EvaluationRequest::evaluate_stream`] with cooperative
    /// cancellation: the token is polled at every chunk boundary of every
    /// shard job — once per shard chunk, whatever the product count (see
    /// [`run_shard_cancellable`]) — and between job claims on the executor.
    /// A token armed with `n` stops every shard before its first chunk of
    /// canonical rank `n` or more ([`ShardFeed::chunk_rank`]), so the run
    /// pushes exactly the chunks of rank below `n` at any worker count; an
    /// explicit cancel is best-effort.
    ///
    /// Every product's session records into its shard job's fork of the
    /// request's telemetry under the product's scope. The forks join the
    /// request's sink in `(product name, shard)` order — also on
    /// cancellation, including the per-chunk `stream.chunk.records`
    /// progress counters of the job that observed the cancel — before
    /// `Err(Cancelled)` is returned.
    pub fn evaluate_stream_cancellable(
        &self,
        products: &[IdsProduct],
        sensitivity: f64,
        cancel: &CancelToken,
    ) -> Result<Vec<StreamEvaluation>, Cancelled> {
        if products.is_empty() {
            return Ok(Vec::new());
        }
        crate::harness::evaluated_once(products);
        let exec = self.executor();
        let profile = TestFeed::realtime_cluster_profile(&self.feed);
        let runners = self.trained_runners(products, &profile, sensitivity);
        let campaign = campaign_shards(&profile, &self.feed);

        // Product `p` belongs to group `p % groups`; jobs run shard-major,
        // so each product's forks join in shard order.
        let groups = product_groups(products.len(), exec.workers(), self.feed.shards);
        let jobs: Vec<(u32, usize)> =
            (0..self.feed.shards).flat_map(|shard| (0..groups).map(move |g| (shard, g))).collect();
        let completed =
            exec.try_par_map_recorded(&jobs, &self.telemetry, cancel, |&(shard, group), forks| {
                let members: Vec<usize> = (group..products.len()).step_by(groups).collect();
                let shard_runners: Vec<PipelineRunner> = members
                    .iter()
                    .map(|&p| {
                        let telemetry = forks.scoped(products[p].id.name());
                        runners[p].reconfigured(stream_run_config(&profile, sensitivity, telemetry))
                    })
                    .collect();
                let feed = ShardFeed::with_campaign(
                    &profile,
                    &self.feed,
                    shard,
                    &campaign[shard as usize],
                );
                let mut ledger = (group == 0).then(StreamLedger::new);
                let outcomes =
                    run_shard_cancellable(&shard_runners, feed, ledger.as_mut(), cancel)?;
                Ok((ledger, members.into_iter().zip(outcomes)))
            })?;

        let mut ledgers = Vec::with_capacity(self.feed.shards as usize);
        let mut per_product: Vec<Vec<ShardOutcome>> = products.iter().map(|_| Vec::new()).collect();
        for (ledger, outcomes) in completed {
            ledgers.extend(ledger);
            for (p, outcome) in outcomes {
                per_product[p].push(outcome);
            }
        }
        let ledger = StreamLedger::merged(ledgers);
        Ok(products
            .iter()
            .zip(per_product)
            .map(|(product, outcomes)| self.merge_shards(product.id.name(), &ledger, outcomes))
            .collect())
    }

    /// Each product's runner, trained once on the request's known-benign
    /// training stream without storing it: the executor's workers
    /// synthesize batches of consecutive sessions ahead of this thread,
    /// which merges them into records and folds each record, in stream
    /// order, into every product's trainable engines. The baselines equal
    /// training on the collected trace.
    fn trained_runners(
        &self,
        products: &[IdsProduct],
        profile: &idse_traffic::SiteProfile,
        sensitivity: f64,
    ) -> Vec<PipelineRunner> {
        let synth = SessionSynth::new(TestFeed::training_stream(profile, &self.feed))
            .expect("feed session rate within MAX_SESSION_RATE");
        let mut folds: Vec<RunnerTraining> = products
            .iter()
            .map(|product| {
                let config = stream_run_config(profile, sensitivity, Telemetry::disabled());
                PipelineRunner::new(product.clone(), config).begin_runner_training()
            })
            .collect();
        // The workers observe each packet where they synthesized it, so
        // no packet crosses threads: this one merges the batches' runs of
        // observations and folds them.
        let observed = |batch| -> Option<Session<BenignObservation>> {
            let run = synth.synthesize_batch(&batch)?;
            Some(run.map_packets(|packet| BenignObservation::of_packet(&packet)))
        };
        self.executor().ordered_fan_out(
            synth.session_batches(TRAINING_BATCH_SESSIONS),
            observed,
            |batches| {
                for (at, obs) in SessionMerge::new(batches) {
                    for fold in &mut folds {
                        fold.learn_benign_observation(at, &obs);
                    }
                }
            },
        );
        folds.into_iter().map(RunnerTraining::finish_runner_training).collect()
    }

    /// Deterministic reduce: fold one product's shard outcomes (in shard
    /// order) into one scorecard, scored against the run's merged ledger.
    fn merge_shards(
        &self,
        product: &str,
        ledger: &StreamLedger,
        shard_outcomes: Vec<ShardOutcome>,
    ) -> StreamEvaluation {
        let mut detected: BTreeSet<u32> = BTreeSet::new();
        let mut flagged: BTreeSet<FlowKey> = BTreeSet::new();
        let (mut alerts, mut offered, mut monitored, mut lost) = (0u64, 0u64, 0u64, 0u64);
        let mut blocked = (0u64, 0u64);
        let mut window_peak = 0usize;
        let mut finished_at = SimTime::ZERO;
        for o in shard_outcomes {
            detected.extend(o.detected);
            flagged.extend(o.flagged);
            alerts += o.alerts;
            offered += o.offered;
            monitored += o.monitored;
            lost += o.lost;
            blocked.0 += o.blocked.0;
            blocked.1 += o.blocked.1;
            window_peak = window_peak.max(o.window_peak);
            finished_at = finished_at.max(o.finished_at);
        }
        let records = ledger.records();
        let confusion = ledger.score(&detected, flagged.len(), alerts as usize);
        let per_class = confusion
            .per_class
            .iter()
            .map(|(class, &counts)| (format!("{class:?}"), counts))
            .collect();
        let scorecard = StreamScorecard {
            product: product.to_owned(),
            seed: self.feed.seed,
            shards: self.feed.shards,
            records,
            transactions: confusion.transactions as u64,
            actual_attacks: confusion.actual_attacks as u64,
            detected_attacks: confusion.detected_attacks as u64,
            false_positives: confusion.false_positives as u64,
            missed_attacks: confusion.missed_attacks.len() as u64,
            false_positive_ratio: confusion.false_positive_ratio(),
            false_negative_ratio: confusion.false_negative_ratio(),
            detection_rate: confusion.detection_rate(),
            alerts,
            offered,
            monitored,
            lost,
            blocked_attack: blocked.0,
            blocked_benign: blocked.1,
            finished_at_ns: finished_at.as_nanos(),
            per_class,
        };
        StreamEvaluation { scorecard, confusion, window_peak }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idse_ids::products::ProductId;
    use idse_sim::SimDuration;

    /// Yield the thread 0–3 times between chunks, varying with the shard,
    /// the chunk and every earlier call, so concurrent shard jobs
    /// interleave differently from run to run.
    pub(super) fn jitter(shard: u32, chunk: u64) {
        use std::sync::atomic::{AtomicU64, Ordering};
        static CALLS: AtomicU64 = AtomicU64::new(0);
        let call = CALLS.fetch_add(1, Ordering::Relaxed);
        let mix = (call ^ (u64::from(shard) << 32) ^ chunk).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        for _ in 0..(mix >> 62) {
            std::thread::yield_now();
        }
    }

    fn small_config(shards: u32, chunk: usize) -> FeedConfig {
        FeedConfig::builder()
            .session_rate(12.0)
            .training_span(SimDuration::from_secs(10))
            .test_span(SimDuration::from_secs(20))
            .campaign_intensity(1)
            .seed(0x57e4)
            .chunk_records(chunk)
            .shards(shards)
            .build()
    }

    #[test]
    fn shard_feed_of_one_reproduces_the_materialized_test_trace() {
        let cfg = small_config(1, 97);
        let feed = TestFeed::realtime_cluster(&cfg);
        let streamed: Vec<TraceRecord> = ShardFeed::new(&feed.profile, &cfg, 0).flatten().collect();
        assert_eq!(streamed.len(), feed.test.len());
        for (a, b) in streamed.iter().zip(feed.test.records().iter()) {
            assert_eq!(a.at, b.at);
            assert_eq!(&a.packet, &b.packet);
            assert_eq!(a.truth, b.truth);
        }
    }

    #[test]
    fn shard_feeds_partition_the_test_trace() {
        let cfg = small_config(3, 256);
        let feed = TestFeed::realtime_cluster(&cfg);
        let mut total = 0usize;
        for s in 0..3 {
            for chunk in ShardFeed::new(&feed.profile, &cfg, s) {
                for rec in &chunk {
                    assert_eq!(flow_shard(rec.packet.ip.src, rec.packet.ip.dst, 3), s);
                    total += 1;
                }
            }
        }
        assert_eq!(total, feed.test.len());
    }

    #[test]
    fn unsharded_stream_run_matches_the_materialized_run() {
        let cfg = small_config(1, 512);
        let request = EvaluationRequest::new().with_feed(cfg.clone());
        let product = IdsProduct::model(ProductId::NidSentry);
        let eval =
            request.evaluate_stream(std::slice::from_ref(&product), 0.7).pop().expect("one eval");

        // Reference: the classic materialized path at the same sensitivity.
        let feed = TestFeed::realtime_cluster(&cfg);
        let run_config = RunConfig {
            sensitivity: Sensitivity::new(0.7),
            monitored_hosts: feed.servers.clone(),
            auto_response: true,
            ..RunConfig::default()
        };
        let outcome =
            PipelineRunner::new(product, run_config).with_training(&feed.training).run(&feed.test);
        let reference =
            StreamLedger::of(&feed.test).score_alerts(&outcome.alerts, &outcome.alert_truths);

        assert_eq!(eval.scorecard.alerts, outcome.alerts.len() as u64);
        assert_eq!(eval.scorecard.offered, outcome.offered);
        assert_eq!(eval.scorecard.monitored, outcome.monitored);
        assert_eq!(eval.scorecard.finished_at_ns, outcome.finished_at.as_nanos());
        assert_eq!(eval.scorecard.transactions, reference.transactions as u64);
        assert_eq!(eval.confusion, reference);
    }

    /// The reference job shape: one job per `(product, shard)` that trains
    /// its own engines, builds its own campaign and `ShardFeed`, folds its
    /// own ledger and records into its own fork, run in `(product name,
    /// shard)` order with the shard ledgers merged pairwise per product.
    fn per_product_shard_jobs(
        cfg: &FeedConfig,
        products: &[IdsProduct],
        telemetry: &Telemetry,
    ) -> Vec<StreamEvaluation> {
        let request = EvaluationRequest::new().with_feed(cfg.clone());
        let profile = TestFeed::realtime_cluster_profile(cfg);
        let training = RecordStream::new(TestFeed::training_stream(&profile, cfg))
            .expect("rate in range")
            .collect_trace();
        let mut order: Vec<usize> = (0..products.len()).collect();
        order.sort_by_key(|&p| products[p].id.name());
        let mut evals: Vec<Option<StreamEvaluation>> = products.iter().map(|_| None).collect();
        for p in order {
            let name = products[p].id.name();
            let mut ledger = StreamLedger::new();
            let mut outcomes = Vec::new();
            for shard in 0..cfg.shards {
                let fork = telemetry.fork(name);
                let config = stream_run_config(&profile, 0.7, Telemetry::disabled());
                let runner = PipelineRunner::new(products[p].clone(), config)
                    .with_training(training.clone())
                    .reconfigured(stream_run_config(&profile, 0.7, fork.clone()));
                let mut shard_ledger = StreamLedger::new();
                outcomes.extend(
                    run_shard_cancellable(
                        std::slice::from_ref(&runner),
                        ShardFeed::new(&profile, cfg, shard),
                        Some(&mut shard_ledger),
                        &CancelToken::new(),
                    )
                    .expect("never cancelled"),
                );
                ledger.merge(shard_ledger);
                fork.join();
            }
            evals[p] = Some(request.merge_shards(name, &ledger, outcomes));
        }
        evals.into_iter().map(|e| e.expect("every product evaluated")).collect()
    }

    #[test]
    fn stream_run_matches_jobs_that_train_and_build_their_own_campaign() {
        use idse_telemetry::MemorySink;
        let cfg = small_config(3, 256);
        // Listed out of name order, so the flush order is not list order.
        let products = [
            IdsProduct::model(ProductId::NidSentry),
            IdsProduct::model(ProductId::GuardSecure),
            IdsProduct::model(ProductId::FlowHunter),
            IdsProduct::model(ProductId::AgentWatch),
        ];
        let render = |evals: Vec<StreamEvaluation>, sink: &MemorySink| {
            let cards: Vec<(String, usize)> =
                evals.iter().map(|e| (e.scorecard.to_json(), e.window_peak)).collect();
            assert_eq!(sink.dropped(), 0, "the sink holds the whole event stream");
            let events: Vec<String> = sink.events().iter().map(|e| e.to_jsonl()).collect();
            (cards, events)
        };
        let sink = MemorySink::new(1 << 20);
        let want =
            render(per_product_shard_jobs(&cfg, &products, &Telemetry::new(sink.clone())), &sink);
        assert!(!want.1.is_empty(), "the reference recorded telemetry");
        // 1 worker: one job per shard; 2: still one group at 3 shards;
        // 8: three groups of products per shard, nine jobs.
        for jobs in [1, 2, 8] {
            let sink = MemorySink::new(1 << 20);
            let evals = EvaluationRequest::new()
                .with_feed(cfg.clone())
                .with_jobs(jobs)
                .with_telemetry(Telemetry::new(sink.clone()))
                .evaluate_stream(&products, 0.7);
            assert_eq!(
                render(evals, &sink),
                want,
                "--jobs {jobs} differs from per-(product, shard) jobs"
            );
        }
    }

    #[test]
    fn product_groups_keep_every_worker_busy_at_few_shards() {
        // Enough shards for the workers: one job per shard.
        assert_eq!(product_groups(4, 2, 4), 1);
        assert_eq!(product_groups(4, 1, 1), 1);
        // One shard, two workers: two groups, two jobs.
        assert_eq!(product_groups(4, 2, 1), 2);
        // Never more groups than products.
        assert_eq!(product_groups(4, 64, 1), 4);
        assert_eq!(product_groups(1, 8, 3), 1);
        for products in 1..6usize {
            for workers in 1..10usize {
                for shards in 1..6u32 {
                    let jobs = product_groups(products, workers, shards) * shards as usize;
                    assert!(jobs >= workers.min(products * shards as usize));
                }
            }
        }
    }

    #[test]
    fn an_empty_product_list_generates_nothing() {
        let token = CancelToken::after_checkpoints(1);
        let evals = EvaluationRequest::new()
            .with_feed(small_config(2, 64))
            .evaluate_stream_cancellable(&[], 0.7, &token)
            .expect("nothing to cancel");
        assert!(evals.is_empty());
        assert!(!token.is_cancelled(), "no chunk was generated, so no checkpoint was reached");
    }

    #[test]
    fn jobs_and_chunk_size_never_change_the_scorecard_bytes() {
        // NidSentry, and FlowHunter: four sensors sharing one training.
        let products =
            [IdsProduct::model(ProductId::NidSentry), IdsProduct::model(ProductId::FlowHunter)];
        let render = |jobs: usize, chunk: usize| {
            EvaluationRequest::new()
                .with_feed(small_config(3, chunk))
                .with_jobs(jobs)
                .evaluate_stream(&products, 0.7)
                .iter()
                .map(|eval| eval.scorecard.to_json())
                .collect::<Vec<_>>()
        };
        let baseline = render(1, 512);
        assert_eq!(baseline, render(4, 512), "worker count changed the bytes");
        assert_eq!(baseline, render(2, 64), "chunk size changed the bytes");
        assert_eq!(baseline, render(8, 4096), "chunk size changed the bytes");
    }

    #[test]
    fn cancellation_stops_at_a_chunk_boundary_with_partial_telemetry_flushed() {
        use idse_telemetry::MemorySink;
        let cfg = small_config(2, 128);
        let products =
            [IdsProduct::model(ProductId::NidSentry), IdsProduct::model(ProductId::FlowHunter)];
        let profile = TestFeed::realtime_cluster_profile(&cfg);
        let shard_chunks = |shard| ShardFeed::new(&profile, &cfg, shard).count() as u64;
        let (shard0_chunks, shard1_chunks) = (shard_chunks(0), shard_chunks(1));
        assert!(shard0_chunks >= 4 && shard1_chunks >= 4, "both shards outlast the armed rank");
        // Chunk `c` of shard `s` has rank `2c + s + 1`. Armed with 7, shard
        // 0 pushes its chunks of rank 1, 3, 5 and shard 1 those of rank 2,
        // 4, 6: three each, to both products, whichever shard runs first.
        let checkpoints = 7;
        let run_cancelled = |jobs: usize| {
            let sink = MemorySink::new(1 << 20);
            let request = EvaluationRequest::new()
                .with_feed(cfg.clone())
                .with_jobs(jobs)
                .with_telemetry(Telemetry::new(sink.clone()));
            let token = CancelToken::after_checkpoints(checkpoints);
            assert!(request.evaluate_stream_cancellable(&products, 0.7, &token).is_err());
            sink.events()
        };
        let lines = |events: &[idse_telemetry::Event]| {
            events.iter().map(|e| e.to_jsonl()).collect::<Vec<_>>()
        };
        let events = run_cancelled(1);
        let progress = |scope: &str| {
            events
                .iter()
                .filter(|e| e.scope == scope && e.name == "stream.chunk.records")
                .map(|e| (e.at, e.value.to_bits()))
                .collect::<Vec<_>>()
        };
        let nid = progress(ProductId::NidSentry.name());
        let flow = progress(ProductId::FlowHunter.name());
        assert_eq!(nid.len() as u64, checkpoints - 1, "one checkpoint per shard chunk");
        assert_eq!(nid, flow, "both products stop at the same shard-chunk boundary");
        assert!(
            events.iter().any(|e| e.name != "stream.chunk.records"),
            "the sessions' partial telemetry reaches the sink on cancellation"
        );
        // 1 worker: two shard jobs in turn; 2: both shards at once; 8: two
        // product groups per shard, four jobs, each deciding alone. Run
        // each width several times under the chunk jitter.
        let want = lines(&events);
        for jobs in [1, 2, 8] {
            for _ in 0..3 {
                assert_eq!(
                    lines(&run_cancelled(jobs)),
                    want,
                    "a cancelled run at --jobs {jobs} differs from --jobs 1"
                );
            }
        }
    }

    #[test]
    fn cancellable_stream_with_fresh_token_matches_evaluate_stream() {
        let product = IdsProduct::model(ProductId::NidSentry);
        let request = EvaluationRequest::new().with_feed(small_config(2, 256));
        let direct = request
            .evaluate_stream(std::slice::from_ref(&product), 0.7)
            .pop()
            .expect("one eval")
            .scorecard
            .to_json();
        let cancellable = request
            .evaluate_stream_cancellable(std::slice::from_ref(&product), 0.7, &CancelToken::new())
            .expect("never cancelled")
            .pop()
            .expect("one eval")
            .scorecard
            .to_json();
        assert_eq!(direct, cancellable);
    }

    #[test]
    fn with_stream_configures_the_feed() {
        let request = EvaluationRequest::new().with_stream(1024, 8);
        assert_eq!(request.feed.chunk_records, 1024);
        assert_eq!(request.feed.shards, 8);
        // Clamped to sane minimums.
        let request = EvaluationRequest::new().with_stream(0, 0);
        assert_eq!(request.feed.chunk_records, 1);
        assert_eq!(request.feed.shards, 1);
    }
}
