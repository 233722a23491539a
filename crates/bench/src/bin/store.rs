//! Query CLI over the provenance-keyed run store (`idse-store`).
//!
//! ```text
//! store [--dir DIR] list
//! store [--dir DIR] show <run>
//! store [--dir DIR] history <metric> [--product P] [--sparkline]
//! store [--dir DIR] diff <run-A> <run-B> [--fail-on-regression]
//! store [--dir DIR] top-regressions <run-A> <run-B> [-n K]
//! store [--dir DIR] bench-import <file> [--stamp S]
//! store [--dir DIR] bench-export <run>
//! ```
//!
//! Run references are full ids, unique id prefixes, or file paths.
//! `diff` compares two runs metric-by-metric with the registry's
//! direction supplying the regression sign; `--fail-on-regression`
//! turns any REGRESSED verdict into exit code 1, which is the CI gate.
//! `bench-import` folds a `BENCH_*.json` report into a `bench`-context
//! run; `bench-export` regenerates the report from the stored run, so
//! the committed benchmark files are products of the store.

use idse_bench::{cli, outln, table};
use idse_store::{diff_runs, RunDraft, RunStore, StoreError, StoredRun, Verdict};
use serde_json::Value;

const USAGE: &str = "usage: store [--dir DIR] <command> [args]\n\
                     \x20 list                                        all stored runs\n\
                     \x20 show <run>                                  one run in full\n\
                     \x20 history <metric> [--product P] [--sparkline] a metric across runs\n\
                     \x20 diff <run-A> <run-B> [--fail-on-regression] direction-aware scorecard diff\n\
                     \x20 top-regressions <run-A> <run-B> [-n K]      worst regressions by severity\n\
                     \x20 bench-import <file> [--stamp S]             fold a BENCH_*.json into the store\n\
                     \x20 bench-export <run>                          regenerate BENCH JSON from a run";

fn fail(e: impl std::fmt::Display) -> ! {
    eprintln!("error: {e}");
    std::process::exit(1);
}

fn need(arg: Option<String>, what: &str) -> String {
    arg.unwrap_or_else(|| {
        eprintln!("error: missing {what} (try --help)");
        std::process::exit(2);
    })
}

fn resolve(store: &RunStore, run_ref: &str) -> StoredRun {
    store.resolve(run_ref).unwrap_or_else(|e| fail(e))
}

fn main() {
    let mut args = cli::Args::parse(USAGE);
    let dir = args.opt("--dir").unwrap_or_else(|| "runs".to_owned());
    let product = args.opt("--product");
    let stamp = args.opt("--stamp");
    let fail_on_regression = args.flag("--fail-on-regression");
    let spark = args.flag("--sparkline");
    let top_n: usize = args.opt_parsed("-n").unwrap_or(10);
    // Shared value-taking flags must come off before the positionals —
    // a flag's value would otherwise be claimed as an operand.
    let out_path = args.opt("--out");
    let json_path = args.opt("--json");
    let command = need(args.positional(), "a command");
    let operands: Vec<String> = std::iter::from_fn(|| args.positional()).collect();
    let mut common = args.finish();
    common.out = out_path;
    common.json = json_path;
    common.deny_json("store");
    let mut out = cli::Out::new(&common);

    let store = RunStore::open(&dir).unwrap_or_else(|e| fail(e));
    let mut exit_code = 0;

    match command.as_str() {
        "list" => {
            let runs = store.list().unwrap_or_else(|e| fail(e));
            let rows: Vec<Vec<String>> = runs
                .iter()
                .map(|r| {
                    vec![
                        r.header.run_id.clone(),
                        r.header.context.clone(),
                        r.header.stamp.clone().unwrap_or_else(|| "-".to_owned()),
                        r.header.products.len().to_string(),
                        r.header.records.to_string(),
                    ]
                })
                .collect();
            outln!(out, "{}", table(&["Run", "Context", "Stamp", "Products", "Records"], &rows));
            outln!(out, "{} runs in {}", runs.len(), store.dir().display());
        }
        "show" => {
            let run = resolve(&store, &need(operands.first().cloned(), "a run reference"));
            outln!(out, "run      {}", run.header.run_id);
            outln!(out, "context  {}", run.header.context);
            outln!(out, "catalog  {}", run.header.catalog_version);
            outln!(out, "stamp    {}", run.header.stamp.as_deref().unwrap_or("-"));
            outln!(out, "file     {}", run.path.display());
            outln!(
                out,
                "provenance:\n{}",
                serde_json::to_string_pretty(&run.header.provenance)
                    .expect("stored provenance re-serializes")
            );
            if let Some(telemetry) = &run.header.telemetry {
                outln!(
                    out,
                    "telemetry:\n{}",
                    serde_json::to_string_pretty(telemetry)
                        .expect("stored telemetry re-serializes")
                );
            }
            let rows: Vec<Vec<String>> = run
                .metrics
                .iter()
                .map(|m| {
                    vec![
                        m.product.clone(),
                        m.metric.clone(),
                        format!("{:?}", m.value),
                        m.unit.clone(),
                        m.note.clone().unwrap_or_default(),
                    ]
                })
                .collect();
            outln!(out, "{}", table(&["Product", "Metric", "Value", "Unit", "Note"], &rows));
            outln!(
                out,
                "{} records across {} products",
                run.header.records,
                run.header.products.len()
            );
        }
        "history" => {
            let metric = need(operands.first().cloned(), "a metric key");
            let points = store.history(&metric, product.as_deref()).unwrap_or_else(|e| fail(e));
            if spark {
                // Shape view: one bar per stored run, oldest on the left,
                // grouped per product — trend at a glance instead of a
                // table of floats.
                for line in idse_store::history_sparklines(&points) {
                    outln!(out, "{line}");
                }
            } else {
                let rows: Vec<Vec<String>> = points
                    .iter()
                    .map(|p| {
                        vec![
                            p.run_id.clone(),
                            p.context.clone(),
                            p.stamp.clone().unwrap_or_else(|| "-".to_owned()),
                            p.product.clone(),
                            format!("{:?}", p.value),
                            p.unit.clone(),
                        ]
                    })
                    .collect();
                outln!(
                    out,
                    "{}",
                    table(&["Run", "Context", "Stamp", "Product", "Value", "Unit"], &rows)
                );
            }
            outln!(out, "{} points for {}", points.len(), metric);
        }
        "diff" => {
            let a = resolve(&store, &need(operands.first().cloned(), "run-A"));
            let b = resolve(&store, &need(operands.get(1).cloned(), "run-B"));
            let diff = diff_runs(&a, &b);
            outln!(out, "diff {} -> {}", diff.run_a, diff.run_b);
            for entry in diff.entries.iter().filter(|e| e.verdict != Verdict::Unchanged) {
                outln!(out, "{}", entry.render());
            }
            outln!(out, "{}", diff.summary());
            if fail_on_regression && diff.has_regressions() {
                exit_code = 1;
            }
        }
        "top-regressions" => {
            let a = resolve(&store, &need(operands.first().cloned(), "run-A"));
            let b = resolve(&store, &need(operands.get(1).cloned(), "run-B"));
            let diff = diff_runs(&a, &b);
            outln!(out, "top {} regressions, {} -> {}", top_n, diff.run_a, diff.run_b);
            for entry in diff.top_regressions(top_n) {
                outln!(out, "severity {:.4}  {}", entry.severity, entry.render());
            }
            outln!(out, "{}", diff.summary());
        }
        "bench-import" => {
            let file = need(operands.first().cloned(), "a BENCH_*.json path");
            let run = bench_import(&store, &file, stamp).unwrap_or_else(|e| fail(e));
            outln!(
                out,
                "{} run {} ({} records) in {}",
                if run.created { "recorded" } else { "matched existing" },
                run.header.run_id,
                run.header.records,
                store.dir().display()
            );
        }
        "bench-export" => {
            let run = resolve(&store, &need(operands.first().cloned(), "a run reference"));
            let report = bench_export(&run).unwrap_or_else(|e| fail(e));
            outln!(out, "{}", serde_json::to_string_pretty(&report).expect("report serializes"));
        }
        other => {
            eprintln!("error: unknown command {other:?} (try --help)");
            std::process::exit(2);
        }
    }

    out.finish();
    std::process::exit(exit_code);
}

/// Fold one `BENCH_*.json` report into a `bench`-context run: the
/// `runs` array becomes per-`jobs=N` wall-time/worker records (its
/// original order preserved as `runs_order` in the provenance), a
/// `speedup` field becomes an `overall` record, `lint_cold_ms` /
/// `lint_warm_ms` become `lint` records (staying in provenance so the
/// export round-trips), and every other field rides along as provenance.
fn bench_import(
    store: &RunStore,
    file: &str,
    stamp: Option<String>,
) -> Result<StoredRun, StoreError> {
    let text = std::fs::read_to_string(file)
        .map_err(|e| StoreError::Io { path: file.to_owned(), source: e })?;
    let report: Value = serde_json::from_str(&text).map_err(|e| StoreError::Parse {
        at: file.to_owned(),
        message: format!("not valid JSON: {e}"),
    })?;
    let bad =
        |message: &str| StoreError::Parse { at: file.to_owned(), message: message.to_owned() };
    let Value::Object(pairs) = &report else {
        return Err(bad("a BENCH report is a JSON object"));
    };
    let mut provenance = Vec::new();
    let mut draft_metrics: Vec<(String, &'static str, f64)> = Vec::new();
    for (key, value) in pairs {
        match key.as_str() {
            "runs" => {
                let runs = value.as_array().ok_or_else(|| bad("\"runs\" must be an array"))?;
                let mut order = Vec::new();
                for entry in runs {
                    let jobs = entry
                        .get("jobs")
                        .and_then(Value::as_u64)
                        .ok_or_else(|| bad("each run needs an integer \"jobs\""))?;
                    let workers = entry
                        .get("workers")
                        .and_then(Value::as_u64)
                        .ok_or_else(|| bad("each run needs an integer \"workers\""))?;
                    let wall_ms = entry
                        .get("wall_ms")
                        .and_then(Value::as_f64)
                        .ok_or_else(|| bad("each run needs a numeric \"wall_ms\""))?;
                    let product = format!("jobs={jobs}");
                    draft_metrics.push((product.clone(), "bench.wall_ms", wall_ms));
                    draft_metrics.push((product, "bench.workers", workers as f64));
                    order.push(Value::U64(jobs));
                }
                provenance.push(("runs_order".to_owned(), Value::Array(order)));
            }
            "speedup" => {
                let speedup = value.as_f64().ok_or_else(|| bad("\"speedup\" must be numeric"))?;
                draft_metrics.push(("overall".to_owned(), "bench.speedup", speedup));
            }
            // Lint-cache wall times double as records (so `store diff`
            // sees them) and stay in provenance verbatim (so the export
            // reproduces the report byte-for-byte).
            "lint_cold_ms" | "lint_warm_ms" => {
                let wall = value.as_f64().ok_or_else(|| bad("lint wall times must be numeric"))?;
                let metric =
                    if key == "lint_cold_ms" { "bench.lint_cold_ms" } else { "bench.lint_warm_ms" };
                draft_metrics.push(("lint".to_owned(), metric, wall));
                provenance.push((key.clone(), value.clone()));
            }
            // Hot-path throughputs (BENCH_hotpath.json): `hotpath`
            // records for `store diff`, provenance for the round-trip.
            "engine_mb_s" | "sim_events_s" => {
                let rate = value.as_f64().ok_or_else(|| bad("throughputs must be numeric"))?;
                let metric =
                    if key == "engine_mb_s" { "bench.engine_mb_s" } else { "bench.sim_events_s" };
                draft_metrics.push(("hotpath".to_owned(), metric, rate));
                provenance.push((key.clone(), value.clone()));
            }
            _ => provenance.push((key.clone(), value.clone())),
        }
    }
    let mut draft = RunDraft::new("bench", Value::Object(provenance)).with_stamp(stamp);
    for (product, metric, value) in &draft_metrics {
        draft.record(product, metric, *value)?;
    }
    store.commit(draft)
}

/// Invert [`bench_import`]: rebuild the BENCH report from a stored
/// `bench` run, byte-stable — field order follows the provenance, with
/// `runs` re-inflated in `runs_order` position and `speedup` (when an
/// `overall` record exists) directly after it.
fn bench_export(run: &StoredRun) -> Result<Value, StoreError> {
    let bad = |message: String| StoreError::Parse { at: run.header.run_id.clone(), message };
    if run.header.context != "bench" {
        return Err(bad(format!("run has context {:?}, not \"bench\"", run.header.context)));
    }
    let Value::Object(provenance) = &run.header.provenance else {
        return Err(bad("bench provenance is not an object".to_owned()));
    };
    // Integral wall times re-render as the integers they were imported
    // from; fractional values (and the speedup) stay floats.
    let renumber = |v: f64| {
        // Exact-zero fraction: only a bit-exact integral value re-renders as
        // the integer it was imported from.
        if v >= 0.0 && v.fract() == 0.0 && v <= u64::MAX as f64 {
            Value::U64(v as u64)
        } else {
            Value::F64(v)
        }
    };
    let mut report = Vec::new();
    for (key, value) in provenance {
        if key != "runs_order" {
            report.push((key.clone(), value.clone()));
            continue;
        }
        let order = value.as_array().ok_or_else(|| bad("runs_order is not an array".to_owned()))?;
        let mut runs = Vec::new();
        for jobs in order {
            let jobs =
                jobs.as_u64().ok_or_else(|| bad("runs_order holds non-integers".to_owned()))?;
            let product = format!("jobs={jobs}");
            let wall = run
                .get(&product, "bench.wall_ms")
                .ok_or_else(|| bad(format!("no bench.wall_ms record for {product}")))?;
            let workers = run
                .get(&product, "bench.workers")
                .ok_or_else(|| bad(format!("no bench.workers record for {product}")))?;
            runs.push(Value::Object(vec![
                ("jobs".to_owned(), Value::U64(jobs)),
                ("workers".to_owned(), renumber(workers.value)),
                ("wall_ms".to_owned(), renumber(wall.value)),
            ]));
        }
        report.push(("runs".to_owned(), Value::Array(runs)));
        if let Some(speedup) = run.get("overall", "bench.speedup") {
            report.push(("speedup".to_owned(), Value::F64(speedup.value)));
        }
    }
    Ok(Value::Object(report))
}
