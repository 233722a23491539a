//! `stream` — constant-memory streaming evaluation at scale.
//!
//! ```text
//! stream [--transactions N] [--hosts N] [--rate SESSIONS_PER_SEC]
//!        [--chunk RECORDS] [--shards N] [--intensity N]
//!        [--product nid|guard|flow|agent] [--sensitivity S]
//!        [--seed N] [--jobs N] [--json PATH] [--out PATH]
//! ```
//!
//! Drives the `RecordStream` evaluation path end to end: the test feed is
//! never materialized — each flow-key shard pulls fixed-size record chunks
//! from a lazy generator, runs them through the Figure-1 pipeline, and
//! folds counts into a constant-memory ledger. Memory stays O(chunk +
//! distinct flows) regardless of `--transactions`, so ten-million-record
//! runs fit where the materialized path would need gigabytes.
//!
//! The flags become a `stream` job spec, turned into a request by
//! `JobSpec::to_request` exactly as a daemon-submitted stream job is, so the
//! two entry points share one set of defaults and one validation.
//!
//! The merged scorecard is byte-identical for any `--jobs N` and any
//! `--chunk` size (pure batching); `--shards` is part of the experiment's
//! identity and is recorded in the scorecard. The text report includes the
//! peak resident set (Linux `VmHWM`) so bounded-memory claims are
//! checkable from the command line.

use idse_bench::cli;
use idse_bench::STANDARD_SEED;
use idse_eval::{JobSpec, StreamEvaluation};

const USAGE: &str = "usage: stream [--transactions N] [--hosts N] [--rate R]\n\
                     \x20             [--chunk RECORDS] [--shards N] [--intensity N]\n\
                     \x20             [--product nid|guard|flow|agent] [--sensitivity S]\n\
                     \x20             [--seed N] [--jobs N] [--json PATH] [--out PATH]";

fn main() {
    let mut args = cli::Args::parse(USAGE);
    let transactions: Option<u64> = args.opt_parsed("--transactions");
    let hosts: Option<u32> = args.opt_parsed("--hosts");
    let rate: Option<f64> = args.opt_parsed("--rate");
    let chunk: Option<usize> = args.opt_parsed("--chunk");
    let shards: Option<u32> = args.opt_parsed("--shards");
    let intensity: Option<u32> = args.opt_parsed("--intensity");
    let product_name = args.opt("--product");
    let sensitivity: Option<f64> = args.opt_parsed("--sensitivity");
    let common = args.finish();
    let seed = common.seed_or(STANDARD_SEED);

    let spec = JobSpec {
        products: match product_name.as_deref() {
            None => Some(vec!["flow".to_owned()]),
            Some("all") => None,
            Some(name) => Some(vec![name.to_owned()]),
        },
        seed: Some(seed),
        rate,
        intensity,
        sensitivity,
        transactions,
        hosts,
        chunk_records: chunk,
        shards,
        ..JobSpec::stream()
    };
    let (products, request) = match spec.resolve_products().and_then(|products| {
        let request = spec.to_request()?;
        Ok((products, request))
    }) {
        Ok(resolved) => resolved,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let request = request.with_jobs(common.jobs);
    let transactions = spec.resolved_transactions();
    let sensitivity = spec.resolved_sensitivity();
    let (rate, chunk, shards) =
        (request.feed.session_rate, request.feed.chunk_records, request.feed.shards);

    eprintln!(
        "streaming {transactions} transactions across {shards} shard(s), chunk {chunk}, \
         {} worker(s)…",
        request.executor().workers()
    );
    #[expect(
        clippy::disallowed_methods,
        clippy::disallowed_types,
        reason = "wall time of the run, reported beside the scorecard and never hashed into it"
    )]
    let started = std::time::Instant::now();
    let evals: Vec<StreamEvaluation> = request.evaluate_stream(&products, sensitivity);
    let wall_ms = started.elapsed().as_millis() as u64;

    let mut out = cli::Out::new(&common);
    for eval in &evals {
        let card = &eval.scorecard;
        idse_bench::outln!(out, "=== {} ===", card.product);
        idse_bench::outln!(
            out,
            "records {}  transactions {}  shards {}  window peak {} records",
            card.records,
            card.transactions,
            card.shards,
            eval.window_peak
        );
        idse_bench::outln!(
            out,
            "attacks {}/{} detected  fp {} ({:.5}/txn)  fn ratio {:.4}  alerts {}",
            card.detected_attacks,
            card.actual_attacks,
            card.false_positives,
            card.false_positive_ratio,
            card.false_negative_ratio,
            card.alerts
        );
        idse_bench::outln!(
            out,
            "offered {}  monitored {}  lost {}  blocked {} attack / {} benign",
            card.offered,
            card.monitored,
            card.lost,
            card.blocked_attack,
            card.blocked_benign
        );
    }
    idse_bench::outln!(out, "wall {wall_ms} ms{}", peak_rss_note());
    out.finish();

    let report = serde_json::json!({
        "seed": seed,
        "transactions": transactions,
        "rate": rate,
        "chunk_records": chunk,
        "shards": shards,
        "sensitivity": sensitivity,
        "wall_ms": wall_ms,
        "peak_rss_kib": peak_rss_kib(),
        "products": evals.iter().map(|e| serde_json::json!({
            "scorecard": e.scorecard,
            "window_peak": e.window_peak,
        })).collect::<Vec<_>>(),
    });
    common.write_json(&report);
}

/// Peak resident set in KiB from `/proc/self/status` (Linux only).
fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

fn peak_rss_note() -> String {
    match peak_rss_kib() {
        Some(kib) => format!("  peak rss {:.1} MiB", kib as f64 / 1024.0),
        None => String::new(),
    }
}
