//! Constant-memory streaming evaluation: chunked feeds, flow-key shards.
//!
//! The batch harness runs over a materialized test trace; at the
//! ROADMAP's million-flow scale that trace does not fit. This module
//! drives the Figure-1 pipeline directly from the `idse-traffic`
//! [`RecordStream`]:
//!
//! * each product's engines train once, before any shard job starts, and
//!   every shard job deploys clones of them;
//! * each shard consumes a lazily merged stream of its background chunk
//!   sequence and its slice of the (small, materialized) campaign, in the
//!   exact order `Trace::merge` would produce ([`ShardFeed`]); the campaign
//!   is generated once per run and split by shard;
//! * scoring happens incrementally through the same [`StreamLedger`] and
//!   the same [`join_alerts`] the batch harness scores with, so the two
//!   engines share one definition of the Figure 3 quantities and no
//!   record index over the full trace ever exists;
//! * one job per `(product, shard)` runs on the [`idse_exec::Executor`]
//!   through [`run_shard_cancellable`], and the shard outcomes merge in
//!   deterministic shard order — the resulting [`StreamScorecard`] is
//!   byte-identical at any [`EvaluationRequest::jobs`] setting and any
//!   chunk size.
//!
//! Shard count *is* part of the experiment identity (a sharded pipeline
//! sees only its shard's cross-flow context), so it is recorded in the
//! scorecard and in feed provenance; byte-identity is guaranteed across
//! worker counts and chunk sizes, not across shard counts.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::confusion::{join_alerts, ConfusionCounts, StreamLedger};
use crate::feeds::{FeedConfig, TestFeed};
use crate::harness::EvaluationRequest;
use idse_exec::{CancelToken, Cancelled, ExperimentPlan, JobKey};
use idse_ids::pipeline::{PipelineRunner, RunConfig};
use idse_ids::products::IdsProduct;
use idse_ids::Sensitivity;
use idse_net::trace::TraceRecord;
use idse_net::FlowKey;
use idse_sim::SimTime;
use idse_telemetry::Telemetry;
use idse_traffic::{flow_shard, RecordStream};
use serde::{Deserialize, Serialize};

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
        }
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

/// What one `(product, shard)` job produced.
#[derive(Debug)]
pub struct ShardOutcome {
    /// Shard index.
    pub shard: u32,
    /// Incremental transaction ledger over this shard's records.
    pub ledger: StreamLedger,
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

/// Run one shard of a product's streaming evaluation, with a cooperative
/// cancellation point at every chunk boundary.
///
/// `runner` holds the product's trained engines under this job's run
/// config; the shard's test window, `feed`, is never materialized.
///
/// The token is checked *between* chunks — never mid-chunk — so a
/// cancelled shard stops at a deterministic record boundary: everything
/// observed so far (including the `stream.chunk.records` progress
/// counters in `telemetry`) is a pure function of the feed and the
/// checkpoint count, and the partial telemetry is flushed by the plan's
/// cancellable reduce.
pub fn run_shard_cancellable(
    runner: &PipelineRunner,
    feed: ShardFeed,
    shard: u32,
    telemetry: Telemetry,
    cancel: &CancelToken,
) -> Result<ShardOutcome, Cancelled> {
    // idse-lint: allow(transitive-unordered-iteration-in-report, reason = "pipeline-internal membership sets: contains/insert only, order never observed; all reported counts come from the ordered ledger below")
    let mut session = runner.session();
    let mut ledger = StreamLedger::new();
    for chunk in feed {
        cancel.guard()?;
        ledger.observe_chunk(&chunk);
        let progress_at = chunk.last().map(|r| r.at.as_nanos()).unwrap_or(0);
        let records = chunk.len() as u64;
        session.push_chunk(chunk);
        telemetry.counter(progress_at, "stream.chunk.records", records);
    }
    let outcome = session.finish();

    let (detected, flagged) = join_alerts(&outcome.alerts, &outcome.alert_truths);
    Ok(ShardOutcome {
        shard,
        ledger,
        detected,
        flagged,
        alerts: outcome.alerts.len() as u64,
        offered: outcome.offered,
        monitored: outcome.monitored,
        lost: outcome.missed,
        blocked: outcome.blocked,
        window_peak: outcome.window_peak,
        finished_at: outcome.finished_at,
    })
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
    /// Each product's engines train once, on the request's executor, and
    /// the training trace is dropped before any shard job starts. Then one
    /// job per `(product, shard)` deploys clones of the trained engines;
    /// shard outcomes merge in shard order, so the returned scorecards
    /// are byte-identical for any [`EvaluationRequest::jobs`] setting and
    /// any `chunk_records`. Memory stays O(chunk + in-flight sessions +
    /// distinct-flow hashes) — the test window is never materialized.
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
    /// `(product, shard)` job (see [`run_shard_cancellable`]) and between
    /// job claims on the executor.
    ///
    /// On cancellation the partial telemetry of every job that ran —
    /// including the per-chunk `stream.chunk.records` progress counters of
    /// the job that observed the cancel — is flushed into the request's
    /// sink in canonical job order before `Err(Cancelled)` is returned.
    pub fn evaluate_stream_cancellable(
        &self,
        products: &[IdsProduct],
        sensitivity: f64,
        cancel: &CancelToken,
    ) -> Result<Vec<StreamEvaluation>, Cancelled> {
        let exec = self.executor();
        let profile = TestFeed::realtime_cluster_profile(&self.feed);
        // Train each product once, then let the training trace go: the
        // shard jobs deploy clones of the trained engines.
        let runners: Vec<PipelineRunner> = {
            let training = RecordStream::new(TestFeed::training_stream(&profile, &self.feed))
                .expect("feed session rate within MAX_SESSION_RATE")
                .collect_trace();
            exec.par_map(products, |_, product| {
                let config = stream_run_config(&profile, sensitivity, Telemetry::disabled());
                // idse-lint: allow(transitive-unordered-iteration-in-report, reason = "the engines' hash containers are keyed per-packet state: entry, get, insert and len only, never iterated into a report")
                PipelineRunner::new(product.clone(), config).with_training(&training)
            })
        };
        let campaign = campaign_shards(&profile, &self.feed);

        let mut plan: ExperimentPlan<(usize, u32)> = ExperimentPlan::new(self.feed.seed);
        for (index, product) in products.iter().enumerate() {
            for shard in 0..self.feed.shards {
                plan.push_scoped(
                    JobKey::new(product.id.name(), "shard", shard),
                    product.id.name(),
                    (index, shard),
                );
            }
        }
        let results = plan.run(&exec, &self.telemetry, cancel, |ctx, &(index, shard)| {
            let config = stream_run_config(&profile, sensitivity, ctx.telemetry.clone());
            let feed =
                ShardFeed::with_campaign(&profile, &self.feed, shard, &campaign[shard as usize]);
            run_shard_cancellable(
                &runners[index].reconfigured(config),
                feed,
                shard,
                ctx.telemetry.clone(),
                cancel,
            )
        })?;
        let mut outcomes: BTreeMap<JobKey, ShardOutcome> =
            results.into_iter().map(|r| (r.key, r.output)).collect();

        Ok(products
            .iter()
            .map(|product| {
                let name = product.id.name();
                let shard_outcomes: Vec<ShardOutcome> = (0..self.feed.shards)
                    .map(|s| {
                        outcomes
                            .remove(&JobKey::new(name, "shard", s))
                            .expect("every shard job completed under its key")
                    })
                    .collect();
                self.merge_shards(name, shard_outcomes)
            })
            .collect())
    }

    /// Deterministic reduce: fold shard outcomes (in shard order) into one
    /// scorecard.
    fn merge_shards(&self, product: &str, shard_outcomes: Vec<ShardOutcome>) -> StreamEvaluation {
        let mut ledger = StreamLedger::new();
        let mut detected: BTreeSet<u32> = BTreeSet::new();
        let mut flagged: BTreeSet<FlowKey> = BTreeSet::new();
        let (mut alerts, mut offered, mut monitored, mut lost) = (0u64, 0u64, 0u64, 0u64);
        let mut blocked = (0u64, 0u64);
        let mut window_peak = 0usize;
        let mut finished_at = SimTime::ZERO;
        for o in shard_outcomes {
            ledger.merge(o.ledger);
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

    #[test]
    fn stream_run_matches_jobs_that_train_and_build_their_own_campaign() {
        let cfg = small_config(3, 256);
        let request = EvaluationRequest::new().with_feed(cfg.clone());
        let product = IdsProduct::model(ProductId::FlowHunter);
        let got =
            request.evaluate_stream(std::slice::from_ref(&product), 0.7).pop().expect("one eval");

        let profile = TestFeed::realtime_cluster_profile(&cfg);
        let training = RecordStream::new(TestFeed::training_stream(&profile, &cfg))
            .expect("rate in range")
            .collect_trace();
        let shards = (0..cfg.shards)
            .map(|shard| {
                let config = stream_run_config(&profile, 0.7, Telemetry::disabled());
                let runner =
                    PipelineRunner::new(product.clone(), config).with_training(training.clone());
                let feed = ShardFeed::new(&profile, &cfg, shard);
                run_shard_cancellable(
                    &runner,
                    feed,
                    shard,
                    Telemetry::disabled(),
                    &CancelToken::new(),
                )
                .expect("never cancelled")
            })
            .collect();
        let want = request.merge_shards(product.id.name(), shards);
        assert_eq!(got.scorecard.to_json(), want.scorecard.to_json());
        assert_eq!(got.window_peak, want.window_peak);
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
        use idse_telemetry::{MemorySink, Telemetry};
        let product = IdsProduct::model(ProductId::NidSentry);
        let run_cancelled = || {
            let sink = MemorySink::new(1 << 14);
            let request = EvaluationRequest::new()
                .with_feed(small_config(1, 128))
                .with_telemetry(Telemetry::new(sink.clone()));
            // The fuse trips on the third chunk-boundary checkpoint: two
            // chunks are processed, the third is never pushed.
            let token = CancelToken::after_checkpoints(3);
            let outcome =
                request.evaluate_stream_cancellable(std::slice::from_ref(&product), 0.7, &token);
            assert!(outcome.is_err(), "the armed fuse cancels the run");
            sink.events().iter().map(|e| e.to_jsonl()).collect::<Vec<_>>()
        };
        let events = run_cancelled();
        let chunks: Vec<&String> =
            events.iter().filter(|l| l.contains("stream.chunk.records")).collect();
        assert_eq!(chunks.len(), 2, "exactly the pre-cancel chunk progress is flushed");
        assert!(!events.is_empty(), "partial telemetry reaches the sink on cancellation");
        assert_eq!(events, run_cancelled(), "a cancelled run is still deterministic");
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
