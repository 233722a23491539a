//! `methodology`: the paper's full 4-product, 56-metric scorecard at the
//! CI gate configuration (sweep 3, rate 10), committed to a fresh store.
//! A run evaluates feeds while `--seconds` allows, seeded by [`op_seed`].
//!
//! Timed from outside: `setup_s` is `TestFeed::build`; `wall_s` runs from
//! `evaluate_products` until the four scorecards are committed. The
//! traced run replays the same work through the public layer calls —
//! `sweep`, the operating-point `PipelineRunner::run`, `throughput_search`
//! and `record_evaluation` — on its own two-worker pool.

use std::path::Path;
use std::time::Instant;

use idse_eval::feeds::TestFeed;
use idse_eval::sweep::sweep;
use idse_eval::throughput::throughput_search;
use idse_eval::{record_evaluation, JobSpec, ProductEvaluation, StoreRequest, STANDARD_SEED};
use idse_exec::Executor;
use idse_ids::pipeline::{PipelineRunner, RunConfig};
use idse_ids::products::IdsProduct;
use idse_ids::Sensitivity;
use idse_store::{diff_runs, RunStore, Verdict};

use crate::stats::median;
use crate::trace::{pool, Tracer};
use crate::{op_seed, peak_rss_mib, Ctx, Report, JOBS};

/// Feed builds timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 25;
/// Metrics every product's scorecard must carry.
const METRICS_PER_SCORECARD: usize = 56;

fn spec(seed: u64, store_dir: &Path) -> JobSpec {
    JobSpec {
        seed: Some(seed),
        rate: Some(10.0),
        sweep: Some(3),
        store: Some(StoreRequest {
            dir: store_dir.display().to_string(),
            stamp: None,
            git_rev: None,
        }),
        ..JobSpec::evaluate()
    }
}

/// One evaluation's inputs, built outside the timed region.
struct Prepared {
    seed: u64,
    store_dir: std::path::PathBuf,
    request: idse_eval::EvaluationRequest,
    feed: TestFeed,
}

fn prepare(ctx: &Ctx, index: u64) -> Prepared {
    let seed = op_seed(ctx.seed, index);
    let store_dir = ctx.workdir.join(format!("runs-{index}"));
    let spec = spec(seed, &store_dir);
    let request = spec.to_request().expect("the methodology spec is valid").with_jobs(JOBS);
    let (profile, _) = spec.site().expect("the methodology spec names a known site");
    let feed = TestFeed::build(profile, &request.feed);
    Prepared { seed, store_dir, request, feed }
}

pub fn run(ctx: &Ctx, report: &mut Report) {
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut first = None;
    for _ in 0..SETUP_REPS {
        let started = Instant::now();
        first = Some(prepare(ctx, 0));
        setup.push(started.elapsed().as_secs_f64());
    }
    report.set("setup_s", median(&setup), setup.len());

    let started = Instant::now();
    let mut walls = Vec::new();
    let mut records = 0u64;
    let mut last_evals = None;
    let mut next = first;
    while let Some(prepared) = next.take() {
        let (wall, evals) = evaluate(&prepared);
        check(&prepared, &evals, report);
        records += prepared.feed.test.len() as u64 * evals.len() as u64;
        walls.push(wall);
        last_evals = Some((prepared, evals));
        if !ctx.trace && ctx.another(started, &walls) {
            next = Some(prepare(ctx, walls.len() as u64));
        }
    }
    report.jobs(&walls, records);
    report.set("peak_rss_mib", peak_rss_mib(), 1);

    if ctx.trace {
        let (prepared, evals) = last_evals.expect("one evaluation ran");
        traced(ctx, &prepared, &evals, walls[0], report);
    }
}

/// The untraced operation: request until four scorecards are committed.
fn evaluate(prepared: &Prepared) -> (f64, Vec<ProductEvaluation>) {
    let products = IdsProduct::all_models();
    let started = Instant::now();
    let evals = prepared.request.evaluate_products(&products, &prepared.feed);
    (started.elapsed().as_secs_f64(), evals)
}

/// Every scorecard complete, exactly one run committed, and at the
/// standard seed that run identical to `runs/GOLDEN`.
fn check(prepared: &Prepared, evals: &[ProductEvaluation], report: &mut Report) {
    report.attempt(evals.len() as u64);
    let mut bad: Vec<String> = Vec::new();
    for e in evals {
        let unscored = e.scorecard.unscored();
        if e.scorecard.len() != METRICS_PER_SCORECARD || !unscored.is_empty() {
            report.problem(format!(
                "{}: {} of {METRICS_PER_SCORECARD} metrics scored",
                e.scorecard.system,
                e.scorecard.len()
            ));
            bad.push(e.scorecard.system.clone());
        }
    }
    let fresh = RunStore::open(&prepared.store_dir).and_then(|s| s.list());
    match fresh {
        Ok(runs) if runs.len() == 1 => {
            if prepared.seed == STANDARD_SEED {
                golden_diff(&runs[0], &mut bad, report);
            }
        }
        Ok(runs) => {
            report.problem(format!("expected one committed run, found {}", runs.len()));
            bad.extend(evals.iter().map(|e| e.scorecard.system.clone()));
        }
        Err(e) => {
            report.problem(format!("reading the committed run: {e}"));
            bad.extend(evals.iter().map(|e| e.scorecard.system.clone()));
        }
    }
    bad.sort();
    bad.dedup();
    report.fail(bad.len() as u64);
}

fn golden_diff(fresh: &idse_store::StoredRun, bad: &mut Vec<String>, report: &mut Report) {
    let runs = Path::new("runs");
    let golden =
        std::fs::read_to_string(runs.join("GOLDEN")).map_err(|e| e.to_string()).and_then(|id| {
            RunStore::open(runs).and_then(|s| s.resolve(id.trim())).map_err(|e| e.to_string())
        });
    match golden {
        Ok(golden) => {
            let diff = diff_runs(&golden, fresh);
            for entry in diff.entries.iter().filter(|e| e.verdict != Verdict::Unchanged) {
                report.problem(format!("GOLDEN diff: {}", entry.render()));
                bad.push(entry.product.clone());
            }
        }
        Err(e) => {
            report.problem(format!("loading runs/GOLDEN: {e}"));
            bad.extend(fresh.header.products.iter().cloned());
        }
    }
}

/// The same evaluation replayed through the layer calls, each in a span.
fn traced(
    ctx: &Ctx,
    prepared: &Prepared,
    evals: &[ProductEvaluation],
    untraced_wall: f64,
    report: &mut Report,
) {
    let tracer = Tracer::new(ctx.run_id());
    let products = IdsProduct::all_models();
    let request = &prepared.request;
    let replay_dir = ctx.workdir.join("runs-traced");
    let replay_spec = spec(prepared.seed, &replay_dir);
    let (profile, _) = replay_spec.site().expect("valid site");
    let store_spec = replay_spec
        .to_request()
        .expect("valid spec")
        .store
        .expect("the methodology spec records to a store");

    let (op, sensitivities, throughputs, window_peak, committed) = tracer.span(None, "op", |op| {
        let feed = tracer
            .span(Some(op), "traffic.feed_build", |_| TestFeed::build(profile, &request.feed));
        let curves = tracer.span(Some(op), "exec.sweep_phase", |phase| {
            pool(JOBS, &products, |product| {
                tracer.span(Some(phase), "eval.sweep", |_| {
                    sweep(product, &feed, &request.sweep, &Executor::serial())
                })
            })
        });
        let sensitivities: Vec<f64> = curves
            .iter()
            .map(|c| c.operating_point(&request.sweep).map(|p| p.sensitivity).unwrap_or(0.5))
            .collect();
        let probes: Vec<(usize, bool)> =
            (0..products.len()).flat_map(|i| [(i, true), (i, false)]).collect();
        let outputs = tracer.span(Some(op), "exec.probe_phase", |phase| {
            pool(JOBS, &probes, |&(i, operate)| {
                if operate {
                    let config = RunConfig {
                        sensitivity: Sensitivity::new(sensitivities[i]),
                        monitored_hosts: feed.servers.clone(),
                        auto_response: true,
                        ..RunConfig::default()
                    };
                    let outcome = tracer.span(Some(phase), "ids.operate", |_| {
                        PipelineRunner::new(products[i].clone(), config)
                            .with_training(feed.training.clone())
                            .run(&feed.test)
                    });
                    (Some(outcome.window_peak), None)
                } else {
                    let t = tracer.span(Some(phase), "eval.throughput", |_| {
                        throughput_search(&products[i], &feed, request.max_throughput_factor)
                    });
                    (None, Some(t.zero_loss_pps))
                }
            })
        });
        let committed = tracer.span(Some(op), "store.commit", |_| {
            record_evaluation(&store_spec, request, evals).map(|r| r.header.run_id)
        });
        let window_peak = outputs.iter().filter_map(|o| o.0).max().unwrap_or(0);
        let throughputs: Vec<f64> = outputs.iter().filter_map(|o| o.1).collect();
        (op, sensitivities, throughputs, window_peak, committed)
    });

    // The replay must reproduce what the evaluator reported: one check per
    // product, and one for the store commit.
    report.attempt(evals.len() as u64 + 1);
    for (i, e) in evals.iter().enumerate() {
        if sensitivities[i] != e.operating_sensitivity
            || throughputs[i] != e.throughput.zero_loss_pps
        {
            report.problem(format!(
                "{}: traced replay disagrees with the evaluation",
                e.product.id.name()
            ));
            report.fail(1);
        }
    }
    let original = RunStore::open(&prepared.store_dir).and_then(|s| s.list());
    let same_run = match (&committed, &original) {
        (Ok(id), Ok(runs)) => runs.iter().any(|r| &r.header.run_id == id),
        _ => false,
    };
    if !same_run {
        report.problem("traced store commit produced a different run id".to_owned());
        report.fail(1);
    }

    let op_span = tracer.spans().into_iter().find(|s| s.id == op).expect("op span recorded");
    let jobs =
        tracer.total("eval.sweep") + tracer.total("ids.operate") + tracer.total("eval.throughput");
    report.set("traffic.feed_build_s", tracer.total("traffic.feed_build"), 1);
    report.set("eval.sweep_s", tracer.total("eval.sweep"), products.len());
    report.set("ids.operate_s", tracer.total("ids.operate"), products.len());
    report.set("eval.throughput_s", tracer.total("eval.throughput"), products.len());
    report.set("eval.throughput_max_s", tracer.longest("eval.throughput"), products.len());
    report.set("store.commit_s", tracer.total("store.commit"), 1);
    report.set("exec.busy_share", jobs / (JOBS as f64 * op_span.duration()), 1);
    report.set("ids.window_peak", window_peak as f64, products.len());
    report.set("traffic.records", prepared.feed.test.len() as f64, 1);
    report.set("trace.coverage", tracer.leaf_coverage(op), 1);
    report.set("trace.overhead_s", op_span.duration() - untraced_wall, 1);
    report.finish_trace(&tracer);
}
