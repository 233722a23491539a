//! `stream`: the constant-memory path, `evaluate_stream` over all four
//! products (100k transactions, 1,000 hosts, 5,000 sessions/s, 4 flow-key
//! shards, sensitivity 0.6), repeated with seeds from [`op_seed`] while
//! `--seconds` allows.
//!
//! Timed from outside: `setup_s` generates the known-benign training
//! trace the run materializes up front; `wall_s` is one
//! `evaluate_stream`. The traced run replays each `(product, shard)` job
//! through `ShardFeed`, `StreamLedger` and a `PipelineSession`, with a
//! span around every call.

use std::collections::BTreeSet;
use std::time::Instant;

use idse_eval::feeds::TestFeed;
use idse_eval::streaming::ShardFeed;
use idse_eval::{EvaluationRequest, JobSpec, StreamEvaluation, StreamLedger, STANDARD_SEED};
use idse_ids::pipeline::{PipelineRunner, RunConfig};
use idse_ids::products::IdsProduct;
use idse_ids::Sensitivity;
use idse_net::FlowKey;
use idse_traffic::RecordStream;

use crate::stats::median;
use crate::trace::{pool, SpanId, Tracer};
use crate::{op_seed, peak_rss_mib, short_name, Ctx, Report, JOBS};

/// Training-trace generations timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// FNV-1a digests of each product's `StreamScorecard::to_json()` at the
/// standard seed, in `ProductId::ALL` order.
const STANDARD_DIGESTS: [u64; 4] =
    [0x6d37_9c04_e56c_1b3d, 0xdf31_7348_78b6_a837, 0x2252_e17f_a9a3_563a, 0x521a_d22f_d535_1fc1];

fn spec(seed: u64) -> JobSpec {
    JobSpec {
        seed: Some(seed),
        rate: Some(5_000.0),
        transactions: Some(100_000),
        hosts: Some(1_000),
        shards: Some(4),
        sensitivity: Some(0.6),
        ..JobSpec::stream()
    }
}

fn request(seed: u64) -> EvaluationRequest {
    spec(seed).to_request().expect("the stream spec is valid").with_jobs(JOBS)
}

pub fn run(ctx: &Ctx, report: &mut Report) {
    let mut setup = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let started = Instant::now();
        let request = request(op_seed(ctx.seed, 0));
        let profile = TestFeed::realtime_cluster_profile(&request.feed);
        let training = RecordStream::new(TestFeed::training_stream(&profile, &request.feed))
            .expect("poisson arrivals always stream")
            .collect_trace();
        setup.push(started.elapsed().as_secs_f64());
        drop(training);
    }
    report.set("setup_s", median(&setup), setup.len());

    let products = IdsProduct::all_models();
    let sensitivity = spec(ctx.seed).resolved_sensitivity();
    let started = Instant::now();
    let mut walls = Vec::new();
    let mut records = 0u64;
    let mut first = None;
    loop {
        let seed = op_seed(ctx.seed, walls.len() as u64);
        let request = request(seed);
        let op_started = Instant::now();
        let evals = request.evaluate_stream(&products, sensitivity);
        walls.push(op_started.elapsed().as_secs_f64());
        check(seed, &evals, report);
        records += evals.iter().map(|e| e.scorecard.records).sum::<u64>();
        if first.is_none() {
            first = Some(evals);
        }
        if ctx.trace || !ctx.another(started, &walls) {
            break;
        }
    }
    report.jobs(&walls, records);
    report.set("peak_rss_mib", peak_rss_mib(), 1);

    if ctx.trace {
        let tracer = Tracer::new(ctx.run_id());
        let request = request(op_seed(ctx.seed, 0));
        let (op, replayed) = tracer
            .span(None, "op", |op| (op, replay(&tracer, op, &request, &products, sensitivity)));
        let evals = first.expect("one stream evaluation ran");
        report.attempt(evals.len() as u64);
        for (eval, got) in evals.iter().zip(&replayed) {
            let card = &eval.scorecard;
            let want =
                (card.records, card.actual_attacks, card.detected_attacks, card.false_positives);
            if got.counts() != want {
                report.problem(format!(
                    "{}: traced replay counted {:?}, the evaluation {want:?}",
                    card.product,
                    got.counts()
                ));
                report.fail(1);
            }
        }
        let op_duration = tracer.spans().iter().find(|s| s.id == op).map_or(0.0, |s| s.duration());
        report_replay(&tracer, &replayed, op_duration, report);
        report.set("trace.coverage", tracer.leaf_coverage(op), 1);
        report.set("trace.overhead_s", op_duration - walls[0], 1);
        report.finish_trace(&tracer);
    }
}

/// Per product: detected + missed = actual, and at the standard seed the
/// scorecard bytes match the pinned digest.
fn check(seed: u64, evals: &[StreamEvaluation], report: &mut Report) {
    report.attempt(evals.len() as u64);
    for (i, eval) in evals.iter().enumerate() {
        let card = &eval.scorecard;
        let mut ok =
            card.detected_attacks + card.missed_attacks == card.actual_attacks && card.records > 0;
        if !ok {
            report.problem(format!(
                "{}: detected {} + missed {} != actual {}",
                card.product, card.detected_attacks, card.missed_attacks, card.actual_attacks
            ));
        }
        if seed == STANDARD_SEED {
            let digest = idse_store::fnv64(card.to_json().as_bytes());
            if digest != STANDARD_DIGESTS[i] {
                report.problem(format!(
                    "{}: scorecard digest {digest:#018x} differs from the pinned {:#018x}",
                    card.product, STANDARD_DIGESTS[i]
                ));
                ok = false;
            }
        }
        if !ok {
            report.fail(1);
        }
    }
}

/// One product's replayed shards, folded.
pub struct Replayed {
    pub ledger: StreamLedger,
    pub detected: BTreeSet<u32>,
    pub flagged: BTreeSet<FlowKey>,
    pub alerts: usize,
    pub records: u64,
    pub window_peak: usize,
}

impl Replayed {
    /// `(records, actual, detected, false positives)`, as the scorecard
    /// reports them.
    pub fn counts(&self) -> (u64, u64, u64, u64) {
        let mut ledger = self.ledger.clone();
        let c = ledger.score(&self.detected, self.flagged.len(), self.alerts);
        (self.records, c.actual_attacks as u64, c.detected_attacks as u64, c.false_positives as u64)
    }
}

/// Replay `request`'s streaming evaluation of `products` through the
/// layer calls, one span per call, on a two-worker pool of
/// `(product, shard)` jobs — the jobs `evaluate_stream` plans.
pub fn replay(
    tracer: &Tracer,
    parent: SpanId,
    request: &EvaluationRequest,
    products: &[IdsProduct],
    sensitivity: f64,
) -> Vec<Replayed> {
    let profile = TestFeed::realtime_cluster_profile(&request.feed);
    let training = tracer.span(Some(parent), "traffic.training", |_| {
        RecordStream::new(TestFeed::training_stream(&profile, &request.feed))
            .expect("poisson arrivals always stream")
            .collect_trace()
    });
    let shards = request.feed.shards;
    let jobs: Vec<(usize, u32)> =
        (0..products.len()).flat_map(|p| (0..shards).map(move |s| (p, s))).collect();
    let outcomes = tracer.span(Some(parent), "exec.shard_phase", |phase| {
        pool(JOBS, &jobs, |&(p, shard)| {
            tracer.span(Some(phase), "exec.job", |job| {
                let name = short_name(&products[p]);
                let config = RunConfig {
                    sensitivity: Sensitivity::new(sensitivity),
                    monitored_hosts: TestFeed::server_hosts(&profile),
                    auto_response: true,
                    ..RunConfig::default()
                };
                let mut session = tracer.span(Some(job), &format!("ids.deploy.{name}"), |_| {
                    PipelineRunner::new(products[p].clone(), config)
                        .with_training(training.clone())
                        .session()
                });
                let mut feed = tracer.span(Some(job), "eval.merge", |_| {
                    ShardFeed::new(&profile, &request.feed, shard)
                });
                let mut ledger = StreamLedger::new();
                let mut records = 0u64;
                while let Some(chunk) = tracer.span(Some(job), "eval.merge", |_| feed.next()) {
                    tracer.span(Some(job), "eval.ledger", |_| ledger.observe_chunk(&chunk));
                    records += chunk.len() as u64;
                    tracer.span(Some(job), &format!("ids.push.{name}"), |_| {
                        session.push_chunk(chunk)
                    });
                }
                let outcome = tracer.span(Some(job), "ids.finish", |_| session.finish());
                let mut detected = BTreeSet::new();
                let mut flagged = BTreeSet::new();
                for (alert, truth) in outcome.alerts.iter().zip(&outcome.alert_truths) {
                    match truth {
                        Some(g) => {
                            detected.insert(g.attack_id);
                        }
                        None => {
                            flagged.insert(alert.flow.canonical());
                        }
                    }
                }
                Replayed {
                    ledger,
                    detected,
                    flagged,
                    alerts: outcome.alerts.len(),
                    records,
                    window_peak: outcome.window_peak,
                }
            })
        })
    });
    // Fold shards in shard order, as the evaluator's reduce does.
    let mut folded: Vec<Replayed> = Vec::with_capacity(products.len());
    for ((p, _), shard) in jobs.iter().zip(outcomes) {
        if folded.len() == *p {
            folded.push(shard);
            continue;
        }
        let acc = folded.last_mut().expect("product folded in order");
        acc.ledger.merge(shard.ledger);
        acc.detected.extend(shard.detected);
        acc.flagged.extend(shard.flagged);
        acc.alerts += shard.alerts;
        acc.records += shard.records;
        acc.window_peak = acc.window_peak.max(shard.window_peak);
    }
    folded
}

/// The per-layer metrics a streaming replay yields.
pub fn report_replay(
    tracer: &Tracer,
    replayed: &[Replayed],
    op_duration: f64,
    report: &mut Report,
) {
    report.set(
        "traffic.training_s",
        tracer.total("traffic.training"),
        tracer.count("traffic.training"),
    );
    for name in ["nid", "guard", "flow", "agent"] {
        let deploy = format!("ids.deploy.{name}");
        let push = format!("ids.push.{name}");
        report.set(&format!("ids.deploy_s.{name}"), tracer.total(&deploy), tracer.count(&deploy));
        report.set(&format!("ids.push_s.{name}"), tracer.total(&push), tracer.count(&push));
    }
    report.set("eval.merge_s", tracer.total("eval.merge"), tracer.count("eval.merge"));
    report.set("eval.ledger_s", tracer.total("eval.ledger"), tracer.count("eval.ledger"));
    report.set("ids.finish_s", tracer.total("ids.finish"), tracer.count("ids.finish"));
    report.set("exec.busy_share", tracer.total("exec.job") / (JOBS as f64 * op_duration), 1);
    let peak = replayed.iter().map(|r| r.window_peak).max().unwrap_or(0);
    report.set("ids.window_peak", peak as f64, replayed.len());
    report.set(
        "traffic.records",
        replayed.iter().map(|r| r.records).sum::<u64>() as f64,
        replayed.len(),
    );
}
